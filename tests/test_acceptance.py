"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
Every tolerance is pinned here; the runtime budgets are asserted after the
numeric outcome is reported.
"""

import math
import random
import time

import numpy as np

from ammix import (
    Currency,
    CurveParams,
    Family,
    MarketState,
    MixSpec,
    Parabolic,
    PowerLaw,
    PriceVector,
    SimConfig,
    StableswapDynamic,
    StableswapParams,
    Uniform,
    arbitrage_state,
    batch_summary,
    check_convexity,
    chi_from_t,
    dynamic_chi,
    equivalence_check,
    erli_discrepancy,
    eval_mixed,
    impermanent_loss,
    lambda_derivs,
    lambda_mix,
    max_extractable,
    point_at,
    portfolio_value,
    reduced_value,
    scaling_factors,
    stableswap_dynamic_residual,
    stableswap_dynamic_y,
    t_from_chi,
)
from ammix.cli import run_command
from ammix.errors import InvalidParameterError, NonDifferentiablePointError
from ammix.schedules import curve_derivatives
from ammix.stableswap import solve_reserve
from conftest import spearman

UNIT = CurveParams(1.0, 1.0, 1.0, 1.0)
POOL = CurveParams(1.0, 2.0, 3000.0, 1000.0)
FAMILIES = [Family.ARITHMETIC, Family.GEOMETRIC, Family.HOMOTOPY]


def _report(num, name, ok, elapsed, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f"  {detail}" if detail else ""
    print(f"[acceptance {num:02d}] {name}: {status} ({elapsed:.2f}s){suffix}")


# 1 ---------------------------------------------------------------------------

def test_criterion_01_normalization():
    t0 = time.perf_counter()
    worst = 0.0
    for params in (UNIT, POOL):
        state = params.initial_state
        for family in FAMILIES:
            for i in range(11):
                mix = MixSpec(family, Uniform(i / 10))
                worst = max(worst, abs(eval_mixed(params, mix, state) - 1.0))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-12
    _report(1, "normalization at the anchor", ok, elapsed, f"worst |A-1| = {worst:.2e}")
    assert ok
    assert elapsed < 1.0


# 2 ---------------------------------------------------------------------------

def test_criterion_02_homotopy_fraction():
    t0 = time.perf_counter()
    worst = 0.0
    for params in (UNIT, POOL):
        for i in range(1, 10):
            s = i / 10
            v = MarketState(s / params.a, (1 - s) / params.b)
            pair = scaling_factors(params, v)
            if abs(pair.lambda1 - pair.lambda0) <= 1e-9 * pair.lambda0:
                continue
            denom = math.hypot((pair.lambda1 - pair.lambda0) * v.x,
                               (pair.lambda1 - pair.lambda0) * v.y)
            for t in (0.0, 0.25, 0.5, 0.75, 1.0):
                p = point_at(params, MixSpec.homotopy(t), s)
                frac = math.hypot(p.x - pair.lambda0 * v.x, p.y - pair.lambda0 * v.y) / denom
                worst = max(worst, abs(frac - t))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-9
    _report(2, "homotopy segment-fraction property", ok, elapsed, f"worst ratio error = {worst:.2e}")
    assert ok
    assert elapsed < 1.0


# 3 ---------------------------------------------------------------------------

def test_criterion_03_convexity_cross_validation():
    t0 = time.perf_counter()
    schedules = (
        [Uniform(t) for t in (0.25, 0.5, 0.75)]
        + [PowerLaw(k) for k in (1.0, 2.0, 4.0, 8.0)]
        + [Parabolic(bias=0.2, center=0.5), Parabolic(bias=0.8, center=0.5)]
    )
    grid = 10_001
    lo, step = 1e-4, (1.0 - 2e-4) / (grid - 1)
    sign_ok = True
    a, b = UNIT.a, UNIT.b
    for sched in schedules:
        for i in range(grid):
            s = lo + i * step
            try:
                lam, lamp, lampp = lambda_derivs(UNIT, sched, s)
            except NonDifferentiablePointError:
                continue
            margin = lam * lampp - 2.0 * lamp * lamp
            xp = (lam + s * lamp) / a
            xpp = (2 * lamp + s * lampp) / a
            yp = (-lam + (1 - s) * lamp) / b
            ypp = (-2 * lamp + (1 - s) * lampp) / b
            det_d2 = (xp * ypp - xpp * yp) / xp**3
            scale = max(abs(margin), 1e-12)
            if margin > 1e-9 * scale and det_d2 <= 0.0:
                sign_ok = False
            elif margin < -1e-9 * scale and det_d2 >= 0.0:
                sign_ok = False
    powerlaw_ok = all(
        check_convexity(params, PowerLaw(k)).passed
        for params in (UNIT, POOL)
        for k in (1.0, 2.0, 4.0, 8.0)
    )
    elapsed = time.perf_counter() - t0
    ok = sign_ok and powerlaw_ok
    _report(3, "convexity margin vs curvature sign", ok, elapsed,
            f"sign agreement = {sign_ok}, power-law certificates = {powerlaw_ok}")
    assert ok
    assert elapsed < 5.0


# 4 ---------------------------------------------------------------------------

def _random_schedule(rng):
    kind = rng.randrange(3)
    if kind == 0:
        return Uniform(rng.uniform(0.0, 1.0))
    if kind == 1:
        return PowerLaw(rng.uniform(1.0, 8.0))
    return Parabolic(bias=rng.uniform(0.2, 0.8), center=rng.uniform(0.3, 0.7))


def _derivative_errors(params, sched, s, h=1e-5, h2=1e-4):
    """(lambda, curve) relative errors of the derivative chain at s against
    central differences of lambda_derivs and of point_at."""
    lam, lamp, lampp = lambda_derivs(params, sched, s)
    lp = lambda_derivs(params, sched, s + h)
    lm = lambda_derivs(params, sched, s - h)
    fd1 = (lp[0] - lm[0]) / (2 * h)
    fd2 = (lp[1] - lm[1]) / (2 * h)
    scale = max(abs(lam), params.c)
    lam_err = max(abs(lamp - fd1) / max(abs(fd1), 1e-7 * scale),
                  abs(lampp - fd2) / max(abs(fd2), 1e-7 * scale))
    dy_dx, d2 = curve_derivatives(params, sched, s)
    mix = MixSpec.scheduled(sched) if not isinstance(sched, Uniform) else MixSpec.homotopy(sched.t)
    pm, pp = point_at(params, mix, s - h), point_at(params, mix, s + h)
    xp = (pp.x - pm.x) / (2 * h)
    yp = (pp.y - pm.y) / (2 * h)
    pm2, p0, pp2 = point_at(params, mix, s - h2), point_at(params, mix, s), point_at(params, mix, s + h2)
    xpp = (pp2.x - 2 * p0.x + pm2.x) / (h2 * h2)
    ypp = (pp2.y - 2 * p0.y + pm2.y) / (h2 * h2)
    fd_d2 = (xp * ypp - xpp * yp) / xp**3
    curve_err = max(abs(dy_dx - yp / xp) / max(abs(yp / xp), 1e-9),
                    abs(d2 - fd_d2) / max(abs(fd_d2), 1e-7 * params.c))
    return lam_err, curve_err


def test_criterion_04_derivative_checks():
    t0 = time.perf_counter()
    lam_worst = 0.0
    curve_worst = 0.0
    # fixed schedules, the uniform ends among them, on both pools
    fixed = random.Random(11)
    for params in (UNIT, POOL):
        for sched in (Uniform(0.0), Uniform(0.5), Uniform(1.0), PowerLaw(2.0), PowerLaw(4.5),
                      Parabolic(bias=0.3, center=0.6)):
            for _ in range(4):
                lam_err, curve_err = _derivative_errors(params, sched, fixed.uniform(0.08, 0.92))
                lam_worst, curve_worst = max(lam_worst, lam_err), max(curve_worst, curve_err)
    rng = random.Random(2024)
    trials = 0
    while trials < 100:
        a, b = rng.uniform(0.4, 2.5), rng.uniform(0.4, 2.5)
        x0, y0 = rng.uniform(0.5, 3000.0), rng.uniform(0.5, 3000.0)
        params = CurveParams(a, b, x0, y0)
        sched = _random_schedule(rng)
        s = rng.uniform(0.1, 0.9)
        if isinstance(sched, PowerLaw) and abs(s - params.s0) < 0.03:
            continue
        try:
            lambda_derivs(params, sched, s)
            curve_derivatives(params, sched, s)
        except Exception:
            # e.g. a parabola that escapes [0, 1] or breaks the monotone
            # trace on this particular curve; only valid draws count
            continue
        trials += 1
        lam_err, curve_err = _derivative_errors(params, sched, s)
        lam_worst, curve_worst = max(lam_worst, lam_err), max(curve_worst, curve_err)
    elapsed = time.perf_counter() - t0
    ok = lam_worst <= 1e-5 and curve_worst <= 1e-4
    _report(4, "derivative chain vs finite differences", ok, elapsed,
            f"lambda rel err = {lam_worst:.2e}, curve rel err = {curve_worst:.2e}")
    assert ok
    assert elapsed < 2.0


# 5 ---------------------------------------------------------------------------

def test_criterion_05_stableswap_equivalence():
    t0 = time.perf_counter()
    worst = 0.0
    counts = []
    # 100 solved completions from each of two seeded streams of pools
    for seed, scales in ((55, [1.0, 2.0, 5.0]), (41, [1.0, 2.0, 7.0])):
        rng = random.Random(seed)
        count = 0
        for _ in range(1000):  # a solver that refuses every draw fails, not hangs
            if count == 100:
                break
            n = rng.choice([2, 3])
            chi = rng.choice([0.01, 0.25, 10.0])
            ss = StableswapParams(n=n, scale=rng.choice(scales), chi=chi)
            partial = [ss.scale / n * rng.uniform(0.3, 2.0) for _ in range(n - 1)]
            try:
                last = solve_reserve(ss, partial)
            except InvalidParameterError:
                continue
            worst = max(worst, equivalence_check(ss, [*partial, last]))
            count += 1
        counts.append(count)
    amp, scale = 1.0, 2.0
    dynamic = StableswapDynamic(amp, scale)
    exact = stableswap_dynamic_residual(amp, scale, MarketState(scale / 2, scale / 2))
    dyn_worst = 0.0
    # the dynamic blend is the chi <-> t reparametrisation at the state's own
    # leverage chi = A*x*y/(D/2)**2: t_from_chi gives its weight, chi_from_t inverts it
    blend_worst = chi_worst = 0.0
    for i in range(50):
        x = 0.2 + 2.2 * i / 49
        state = MarketState(x, stableswap_dynamic_y(amp, scale, x))
        dyn_worst = max(dyn_worst, abs(stableswap_dynamic_residual(amp, scale, state)))
        chi = dynamic_chi(amp, scale, (state.x, state.y))
        t = dynamic.weight(state)
        blend_worst = max(blend_worst, abs(t_from_chi(chi, 2) - t) / t)
        chi_worst = max(chi_worst, abs(chi_from_t(t, 2) - chi) / chi)
    elapsed = time.perf_counter() - t0
    ok = (counts == [100, 100] and worst <= 1e-9 and exact == 0.0
          and dyn_worst <= 1e-9 * scale * scale
          and blend_worst <= 1e-15 and chi_worst <= 1e-11)
    _report(5, "stableswap blend equivalence", ok, elapsed,
            f"reparam dev = {worst:.2e}, balanced residual = {exact}, root residual = {dyn_worst:.2e}, "
            f"dynamic t rel err = {blend_worst:.1e}, chi rel err = {chi_worst:.1e}")
    assert ok
    assert elapsed < 2.0


# 6 ---------------------------------------------------------------------------

def _cpmm_grid_min(p1, p2, n=100_000):
    # brute-force infimum of p . X over the unit constant-product curve
    s = np.linspace(1e-4, 1 - 1e-4, n)
    x = np.sqrt(s / (1 - s))
    y = np.sqrt((1 - s) / s)
    values = p1 * x + p2 * y
    i = int(np.argmin(values))
    return float(values[i]), MarketState(float(x[i]), float(y[i]))


def test_criterion_06_impermanent_loss():
    t0 = time.perf_counter()
    rng = random.Random(66)
    il_max = -math.inf
    for params in (UNIT, POOL):
        base_rate = params.a / params.b
        for _ in range(200):
            family = rng.choice(FAMILIES)
            t = rng.choice([0.0, 0.25, 0.5, 0.75, 1.0])
            mix = MixSpec(family, Uniform(t))
            p_f = PriceVector(base_rate * rng.uniform(0.2, 5.0), rng.uniform(0.5, 2.0))
            x_f = arbitrage_state(params, mix, p_f)
            il_max = max(il_max, impermanent_loss(p_f, params.initial_state, x_f).il)
    closed_worst = 0.0
    cpmm = MixSpec.arithmetic(1.0)
    for r in (0.25, 0.5, 2.0, 4.0):
        p_f = PriceVector(r, 1.0)
        closed = 2 * math.sqrt(r) / (1 + r) - 1
        _, x_grid = _cpmm_grid_min(r, 1.0)
        il_grid = impermanent_loss(p_f, UNIT.initial_state, x_grid).il
        il_solver = impermanent_loss(p_f, UNIT.initial_state,
                                     arbitrage_state(UNIT, cpmm, p_f)).il
        closed_worst = max(closed_worst, abs(il_grid - closed), abs(il_solver - closed))
    elapsed = time.perf_counter() - t0
    ok = il_max <= 1e-9 and closed_worst <= 1e-8
    _report(6, "impermanent loss bounds and closed form", ok, elapsed,
            f"max IL = {il_max:.2e}, closed-form err = {closed_worst:.2e}")
    assert ok
    assert elapsed < 5.0


# 7 ---------------------------------------------------------------------------

def test_criterion_07_portfolio_value():
    t0 = time.perf_counter()
    cpmm = MixSpec.arithmetic(1.0)
    v41 = portfolio_value(UNIT, cpmm, PriceVector(4, 1))
    u1 = reduced_value(UNIT, cpmm, 1.0)
    grid_v41, _ = _cpmm_grid_min(4.0, 1.0)
    grid_u1, _ = _cpmm_grid_min(1.0, 1.0)
    values_ok = (
        abs(v41 - 4.0) <= 1e-9 * 4.0 and abs(u1 - 2.0) <= 1e-8
        and abs(grid_v41 - 4.0) <= 1e-8 and abs(grid_u1 - 2.0) <= 1e-8
    )
    hom_ok = True
    for params in (UNIT, POOL):
        for mix in (cpmm, MixSpec.homotopy(0.4)):
            p = PriceVector(1.7 * params.a / params.b, 1.0)
            base = portfolio_value(params, mix, p)
            for lam in (0.5, 3.0):
                scaled = portfolio_value(params, mix, PriceVector(lam * p.p1, lam * p.p2))
                if abs(scaled - lam * base) > 1e-10 * abs(lam * base):
                    hom_ok = False
    ordering_ok = True
    for r in (0.5, 2.0):
        values = [reduced_value(UNIT, MixSpec.homotopy(1.0 - s), r)
                  for s in (0.0, 0.25, 0.5, 0.75, 1.0)]
        for prev, nxt in zip(values, values[1:]):
            if nxt > prev + 1e-12:
                ordering_ok = False
    elapsed = time.perf_counter() - t0
    ok = values_ok and hom_ok and ordering_ok
    _report(7, "portfolio value and stability ordering", ok, elapsed,
            f"values = {values_ok}, homogeneity = {hom_ok}, ordering = {ordering_ok}")
    assert ok
    assert elapsed < 5.0


# 8 ---------------------------------------------------------------------------

def test_criterion_08_liquidity_dichotomy():
    t0 = time.perf_counter()
    state = UNIT.initial_state
    finite_ok = all(
        max_extractable(UNIT, MixSpec.arithmetic(t), state, Currency.CUR2).attainable
        for t in (0.0, 0.5)
    )
    sup_ok = all(
        not max_extractable(UNIT, MixSpec(f, Uniform(t)), state, Currency.CUR2).attainable
        for f in (Family.GEOMETRIC, Family.HOMOTOPY)
        for t in (0.5, 1.0)
    )
    asym_ok = True
    for s in (1e-6, 1 - 1e-6):
        lam_a = lambda_mix(POOL, Family.ARITHMETIC, s, 0.5)
        lam_g = lambda_mix(POOL, Family.GEOMETRIC, s, 0.5)
        lam_h = lambda_mix(POOL, Family.HOMOTOPY, s, 0.5)
        if not (lam_a < 10 * POOL.c and lam_g > 1e2 and lam_h > 1e2):
            asym_ok = False
    elapsed = time.perf_counter() - t0
    ok = finite_ok and sup_ok and asym_ok
    _report(8, "liquidity dichotomy and endpoint asymptotics", ok, elapsed,
            f"finite = {finite_ok}, supremum = {sup_ok}, asymptotics = {asym_ok}")
    assert ok
    assert elapsed < 1.0


# 9 ---------------------------------------------------------------------------

def test_criterion_09_simulation_trend():
    t0 = time.perf_counter()
    rho_mse, rho_slip = 1.0, -1.0
    # the full sweep, and a short one: 5 runs of 300 steps at every other stability
    full, short = SimConfig(seed=20240801, runs=20), SimConfig(seed=20240801, runs=5, steps=300)
    for config, stabilities in ((full, [round(0.1 * i, 2) for i in range(1, 10)]),
                                (short, [0.1, 0.3, 0.5, 0.7, 0.9])):
        summaries = batch_summary(config, stabilities)
        rho_mse = min(rho_mse, spearman(stabilities, [s.mse_internal_external for s in summaries]))
        rho_slip = max(rho_slip, spearman(stabilities, [s.early_window_slippage for s in summaries]))
    elapsed = time.perf_counter() - t0
    ok = rho_mse >= 0.8 and rho_slip <= -0.5
    _report(9, "stability sweep trends", ok, elapsed,
            f"spearman(mse) = {rho_mse:.3f}, spearman(slippage) = {rho_slip:.3f}")
    assert ok
    assert elapsed < 60.0


# 10 --------------------------------------------------------------------------

def test_criterion_10_erli_witness():
    t0 = time.perf_counter()
    cpmm_dev = erli_discrepancy(UNIT, MixSpec.arithmetic(1.0))
    hom_dev = erli_discrepancy(UNIT, MixSpec.homotopy(0.5))
    elapsed = time.perf_counter() - t0
    ok = cpmm_dev <= 1e-9 and hom_dev > 1e-6
    _report(10, "rate-level independence witness", ok, elapsed,
            f"cpmm spread = {cpmm_dev:.2e}, homotopy spread = {hom_dev:.2e}")
    assert ok
    assert elapsed < 2.0


# 11 --------------------------------------------------------------------------

def test_criterion_11_cli_reproducibility(capsys):
    t0 = time.perf_counter()
    args = ["sim-run", "--seed", "90210", "--stability", "0.5", "--steps", "200"]
    code1 = run_command(args)
    out1 = capsys.readouterr().out
    code2 = run_command(args)
    out2 = capsys.readouterr().out
    repro_ok = code1 == 0 and code2 == 0 and out1 == out2 and len(out1) > 0
    membership_ok = True
    params = CurveParams(1, 1, 1, 1)
    for family, name in ((Family.ARITHMETIC, "arith"), (Family.GEOMETRIC, "geo"),
                         (Family.HOMOTOPY, "hom")):
        for t in (0.25, 0.5, 0.75):
            code = run_command(["curve-sample", "--mix", name, "--t", str(t)])
            out = capsys.readouterr().out
            if code != 0:
                membership_ok = False
                continue
            mix = MixSpec(family, Uniform(t))
            for line in out.strip().split("\n")[1:]:
                _, xs, ys = line.split(",")
                state = MarketState(float(xs), float(ys))
                if abs(eval_mixed(params, mix, state) - 1.0) > 1e-10:
                    membership_ok = False
    elapsed = time.perf_counter() - t0
    ok = repro_ok and membership_ok
    with capsys.disabled():
        _report(11, "CLI reproducibility and figure sampling", ok, elapsed,
                f"byte-identical = {repro_ok}, membership = {membership_ok}")
    assert ok
    assert elapsed < 10.0
