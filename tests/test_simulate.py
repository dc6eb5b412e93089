import math
import random
import re

import numpy as np
import pytest

from ammix import (
    Currency,
    MarketState,
    MixSpec,
    SimConfig,
    batch_summary,
    eval_mixed,
    gen_external_rates,
    point_at,
    run_sim,
    sim_step,
)
from ammix.core import spot_rate as internal_rate
from ammix.errors import InvalidParameterError
from ammix.schedules import S_MAX, S_MIN
from ammix.simulate import (
    SimSummary, SimTrace, _external_rng, _run_rng, _run_with, curve_for, summarize)


def test_config_defaults_match_reference_setup():
    cfg = SimConfig()
    assert cfg.steps == 500
    assert (cfg.init_state.x, cfg.init_state.y) == (3000.0, 1000.0)
    assert cfg.init_external_rate == 0.5
    assert cfg.rate_interval == 80
    assert cfg.rate_max_move == 0.2
    assert cfg.max_extraction_frac == 0.02
    assert cfg.toward_prob == 0.9
    assert cfg.runs == 100
    assert cfg.seed == 0


def test_config_validation():
    for bad in ({"stability": 1.5}, {"stability": 1.0000005}, {"toward_prob": -0.1},
                {"toward_prob": 1.0000005}, {"steps": -1}):
        with pytest.raises(InvalidParameterError):
            SimConfig(**bad)
    assert SimConfig(toward_prob=0.0).toward_prob == 0.0


@pytest.mark.parametrize("field, value, error", [
    ("init_external_rate", 0.0, "init_external_rate must be positive"),
    ("init_external_rate", math.nan, "init_external_rate must be positive"),
    ("rate_max_move", 1.0, "rate_max_move must be in [0, 1)"),
    ("rate_max_move", -0.1, "rate_max_move must be in [0, 1)"),
    ("max_extraction_frac", 1.0, "max_extraction_frac must be in [0, 1)"),
    ("max_extraction_frac", -0.01, "max_extraction_frac must be in [0, 1)"),
])
def test_config_refuses_a_rate_or_fraction_out_of_range(field, value, error):
    with pytest.raises(InvalidParameterError, match=re.escape(error)):
        SimConfig(**{field: value})


@pytest.mark.parametrize("seed", [-1, 1.5, "1", None, True, False])
def test_config_refuses_a_seed_that_is_not_a_non_negative_integer(seed):
    # numpy's SeedSequence would raise its own bare ValueError or TypeError in run_sim
    with pytest.raises(InvalidParameterError,
                       match=re.escape(f"seed must be a non-negative integer, got {seed!r}")):
        SimConfig(seed=seed)


@pytest.mark.parametrize("name,value", [
    ("steps", 2.5), ("steps", -1), ("steps", "3"), ("rate_interval", 2.5), ("rate_interval", 0),
    ("rate_interval", 80.0), ("runs", 1.5), ("runs", 0), ("runs", None),
    # True is an Integral: steps=True ran one step
    ("steps", True), ("steps", False), ("rate_interval", True), ("runs", True),
])
def test_config_refuses_a_count_that_is_not_an_integer_in_range(name, value):
    # steps=2.5 raised numpy's bare TypeError in run_sim, runs=1.5 range()'s in
    # batch_summary, and rate_interval=2.5 moved the rate at multiples of 2.5
    least = 0 if name == "steps" else 1
    with pytest.raises(InvalidParameterError,
                       match=re.escape(f"{name} must be an integer >= {least}, got {value!r}")):
        SimConfig(**{name: value})


@pytest.mark.parametrize("seed", [0, 7, np.int64(7), 2**70])
def test_config_takes_any_non_negative_integer_seed(seed):
    assert SimConfig(seed=seed, steps=3).seed == seed
    assert len(run_sim(SimConfig(seed=seed, steps=3))) == 4


def test_schedule_exponent_is_eight_times_stability():
    assert SimConfig(stability=0.5).schedule_exponent == 4.0


def test_curve_anchored_at_initial_rate():
    params, mix = curve_for(SimConfig(stability=0.5))
    assert (params.a, params.b) == (0.5, 1.0)
    assert (params.x0, params.y0) == (3000.0, 1000.0)
    assert params.alpha == pytest.approx(0.6, abs=1e-15)
    assert internal_rate(params, mix, params.initial_state) == pytest.approx(0.5, rel=1e-12)


def test_zero_stability_maps_to_cpmm():
    params, mix = curve_for(SimConfig(stability=0.0))
    assert mix == MixSpec.homotopy(1.0)


def test_external_rates_zero_steps():
    cfg = SimConfig(steps=0)
    rates = gen_external_rates(cfg, _external_rng(cfg.seed))
    assert rates.tolist() == [0.5]


def test_external_rates_no_move():
    cfg = SimConfig(steps=200, rate_max_move=0.0)
    rates = gen_external_rates(cfg, _external_rng(cfg.seed))
    assert np.all(rates == 0.5)


def test_external_rates_deterministic():
    cfg = SimConfig(steps=500, seed=99)
    r1 = gen_external_rates(cfg, _external_rng(cfg.seed))
    r2 = gen_external_rates(cfg, _external_rng(cfg.seed))
    assert np.array_equal(r1, r2)


def test_external_rates_piecewise_structure():
    cfg = SimConfig(steps=500, seed=3)
    rates = gen_external_rates(cfg, _external_rng(cfg.seed))
    # constant plateaus of length 80, jumps only at positive multiples
    for i in range(1, 501):
        if i % 80 != 0:
            assert rates[i] == rates[i - 1]
    jumps = [i for i in range(1, 501) if rates[i] != rates[i - 1]]
    assert set(jumps) <= {80, 160, 240, 320, 400, 480}
    # moves are bounded by 20%
    for i in jumps:
        assert abs(rates[i] / rates[i - 1] - 1.0) <= 0.2


def test_sim_step_noop_when_size_zero():
    cfg = SimConfig(max_extraction_frac=0.0)
    params, mix = curve_for(cfg)
    state = cfg.init_state
    new_state, rec = sim_step(state, params, mix, 0.8, cfg, _run_rng(cfg.seed, 0))
    assert new_state == state
    assert (rec.extracted, rec.output_amount, rec.input_amount) == (None, 0.0, 0.0)


def test_sim_step_moves_rate_toward_external():
    cfg = SimConfig(toward_prob=1.0, stability=0.5)
    params, mix = curve_for(cfg)
    state = cfg.init_state
    rng = _run_rng(cfg.seed, 0)
    external = 5.0  # far above the internal rate 0.5
    before = internal_rate(params, mix, state)
    new_state, rec = sim_step(state, params, mix, external, cfg, rng)
    assert rec.extracted is Currency.CUR1
    assert new_state.x < state.x
    after = internal_rate(params, mix, new_state)
    assert before < after < external


@pytest.mark.parametrize("end, start, external, extracted", [
    # x is scarce at S_MIN, where the rate is about 7.5e11
    (S_MIN, S_MIN * (1.0 + 1e-9), 1e15, Currency.CUR1),
    (S_MAX, S_MAX - 2.0**-53, 1e-15, Currency.CUR2),  # the float below S_MAX
])
def test_sim_step_clamps_a_draw_past_the_curve_end_to_it(end, start, external, extracted):
    """A state next to the curve's end, pushed toward it: the seeded draw
    asks for more than the curve holds, and the trade stops at the end
    state, at a finite slippage."""
    cfg = SimConfig(toward_prob=1.0)
    params, mix = curve_for(cfg)
    boundary = point_at(params, mix, end)
    state = point_at(params, mix, start)
    new_state, rec = sim_step(state, params, mix, external, cfg, _run_rng(3, 0))
    assert new_state == boundary
    assert rec.extracted is extracted
    if extracted is Currency.CUR1:
        assert (rec.output_amount, rec.input_amount) == (state.x - boundary.x, boundary.y - state.y)
    else:
        assert (rec.output_amount, rec.input_amount) == (state.y - boundary.y, boundary.x - state.x)
    assert rec.output_amount > 0.0 and rec.input_amount > 0.0
    assert math.isfinite(rec.slippage)


@pytest.mark.parametrize("end, external", [(S_MIN, 1e15), (S_MAX, 1e-15)])
def test_sim_step_at_the_curve_end_trades_nothing_at_no_price(end, external):
    """From the end state itself the clamp returns the same state: nothing is
    paid, so the slippage is NaN, which ``mean_slippage`` skips."""
    cfg = SimConfig(toward_prob=1.0)
    params, mix = curve_for(cfg)
    state = point_at(params, mix, end)
    new_state, rec = sim_step(state, params, mix, external, cfg, _run_rng(3, 0))
    assert new_state == state
    assert (rec.output_amount, rec.input_amount) == (0.0, 0.0)
    assert math.isnan(rec.slippage)


def test_sim_step_tie_keeps_state_on_curve():
    cfg = SimConfig(stability=0.5)
    params, mix = curve_for(cfg)
    state = cfg.init_state
    tie_rate = internal_rate(params, mix, state)
    new_state, rec = sim_step(state, params, mix, tie_rate, cfg, _run_rng(cfg.seed, 0))
    assert rec.extracted in (Currency.CUR1, Currency.CUR2)
    assert abs(eval_mixed(params, mix, new_state) - 1.0) <= 1e-9


def test_run_sim_zero_steps():
    trace = run_sim(SimConfig(steps=0, seed=5))
    assert len(trace) == 1
    assert trace.extracted[0] is None
    assert summarize(trace) == SimSummary(0.5, 0.0, 0.0, 0.0)  # empty windows read 0
    # a run of at most 101 steps is all final window
    short = summarize(run_sim(SimConfig(steps=5, seed=5)))
    assert short.final_window_mse == short.mse_internal_external


def test_run_sim_deterministic():
    t1 = run_sim(SimConfig(seed=11, stability=0.3, steps=120))
    t2 = run_sim(SimConfig(seed=11, stability=0.3, steps=120))
    assert np.array_equal(t1.x, t2.x)
    assert np.array_equal(t1.y, t2.y)
    assert np.array_equal(t1.internal_rate, t2.internal_rate)
    assert np.array_equal(t1.slippage, t2.slippage, equal_nan=True)


def test_run_sim_conserves_invariant():
    cfg = SimConfig(seed=13, stability=0.6, steps=200)
    trace = run_sim(cfg)
    params, mix = curve_for(cfg)
    for x, y in zip(trace.x, trace.y):
        assert abs(eval_mixed(params, mix, MarketState(x, y)) - 1.0) <= 1e-9


def test_run_sim_low_stability_singular_anchor_ok():
    # stability 0.1 gives exponent 0.8 < 1: the anchor point is a schedule
    # cusp and must still produce a quoted rate
    trace = run_sim(SimConfig(seed=2, stability=0.1, steps=50))
    assert np.isfinite(trace.internal_rate).all()
    assert trace.internal_rate[0] == pytest.approx(0.5, rel=1e-12)


def test_batch_reuses_external_series():
    cfg = SimConfig(seed=31, runs=2, steps=160)
    base = gen_external_rates(cfg, _external_rng(cfg.seed))
    for stability in (0.2, 0.8):
        trace = run_sim(SimConfig(seed=31, stability=stability, steps=160))
        assert np.array_equal(trace.external_rate, base)


def test_batch_summary_refuses_no_stabilities():
    with pytest.raises(InvalidParameterError, match="^stabilities must be non-empty$"):
        batch_summary(SimConfig(), [])


def test_batch_single_run_equals_run_sim():
    cfg = SimConfig(seed=17, runs=1, steps=100, stability=0.4)
    summary = batch_summary(cfg, [0.4])[0]
    from ammix.simulate import summarize
    direct = summarize(run_sim(cfg))
    assert summary.mse_internal_external == direct.mse_internal_external
    assert summary.early_window_slippage == direct.early_window_slippage
    assert summary.final_window_mse == direct.final_window_mse


def test_run_sim_resolves_its_curve_once(monkeypatch):
    """One Market and its mirror serve every step (before the Market record,
    these 500 steps took 1,501 schedule encodings and 416 mirrored CurveParams)."""
    import ammix.core as core

    config = SimConfig(seed=1, stability=0.5)
    counts = {"schedule_coeffs": 0, "CurveParams": 0}
    schedule_coeffs, post_init = core.schedule_coeffs, core.CurveParams.__post_init__

    def counted_coeffs(*args):
        counts["schedule_coeffs"] += 1
        return schedule_coeffs(*args)

    def counted_post_init(self):
        counts["CurveParams"] += 1
        post_init(self)

    monkeypatch.setattr(core, "schedule_coeffs", counted_coeffs)
    monkeypatch.setattr(core.CurveParams, "__post_init__", counted_post_init)
    trace = run_sim(config)
    assert len(trace) == config.steps + 1
    assert counts["schedule_coeffs"] <= 2
    assert counts["CurveParams"] <= 1 + 2  # the config's own curve, then at most 2 more


def test_batch_summary_finds_each_market_without_comparing_curves(monkeypatch):
    """A batch on fresh curve objects equal to ones already resolved finds
    each Market in the instance's own dict and compares no curves (a shared
    cache keyed by equal curves made 1,202 compares here)."""
    import ammix.core as core

    config, stabilities = SimConfig(seed=1, steps=200, runs=1), [0.3, 0.7]
    first = batch_summary(config, stabilities)
    counts = {"CurveParams": 0, "MixSpec": 0}
    for cls in (core.CurveParams, core.MixSpec):
        def counted_eq(self, other, eq=cls.__eq__, name=cls.__name__):
            counts[name] += 1
            return eq(self, other)

        monkeypatch.setattr(cls, "__eq__", counted_eq)
    assert batch_summary(config, stabilities) == first
    paths = len(stabilities) * config.runs
    assert counts["CurveParams"] <= paths and counts["MixSpec"] <= paths, counts
    params, mix = curve_for(config)
    assert core.market(params, mix) is core.market(params, mix)


def _reference_run_with(config, params, mix, external, rng):
    """The simulation loop writing each step into preallocated arrays."""
    n = config.steps + 1
    xs, ys, internal = np.empty(n), np.empty(n), np.empty(n)
    extracted = [None] * n
    out_amt, in_amt, slip = np.full(n, np.nan), np.full(n, np.nan), np.full(n, np.nan)
    state = config.init_state
    xs[0], ys[0] = state.x, state.y
    internal[0] = internal_rate(params, mix, state)
    for i in range(1, n):
        state, rec = sim_step(state, params, mix, external[i], config, rng)
        xs[i], ys[i] = state.x, state.y
        internal[i] = internal_rate(params, mix, state)
        extracted[i] = rec.extracted
        out_amt[i] = rec.output_amount
        in_amt[i] = rec.input_amount
        slip[i] = rec.slippage
    return SimTrace(
        config=config, params=params, mix=mix,
        x=xs, y=ys, internal_rate=internal, external_rate=np.array(external),
        extracted=extracted, trade_output=out_amt, trade_input=in_amt, slippage=slip,
    )


def test_run_loop_matches_the_array_loop():
    """The trace built from per-step lists equals the one written element by
    element into arrays, value for value and as float64."""
    rng = random.Random(1618)
    for i in range(20):
        config = SimConfig(
            steps=rng.choice([0, 1, rng.randint(2, 60)]),
            init_state=rng.choice([MarketState(3000.0, 1000.0), MarketState(3, 1),
                                   MarketState(rng.uniform(1, 100), rng.uniform(1, 100))]),
            rate_interval=rng.randint(1, 20),
            stability=[0.0, 1.0][i] if i < 2 else rng.random(),
            max_extraction_frac=rng.choice([0.0, rng.uniform(0.0, 0.1)]),
            toward_prob=rng.random(),
            seed=rng.randint(0, 2**32),
        )
        params, mix = curve_for(config)
        external = gen_external_rates(config, _external_rng(config.seed))
        got = _run_with(config, params, mix, external, _run_rng(config.seed, 0))
        want = _reference_run_with(config, params, mix, external, _run_rng(config.seed, 0))
        assert got.extracted == want.extracted, config
        for name in ("x", "y", "internal_rate", "external_rate", "trade_output", "trade_input",
                     "slippage"):
            value = getattr(got, name)
            assert value.dtype == np.float64, (name, config)
            assert np.array_equal(value, getattr(want, name), equal_nan=True), (name, config)
