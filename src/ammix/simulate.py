"""Arbitrage simulation against a random external exchange rate.

A scheduled homotopy pool is hit by traders who, with high probability,
trade in the direction that pulls the internal rate toward an external
rate following a piecewise-constant random walk.  Sweeping the schedule's
stability dial shows the trade-off: stable curves quote with less slippage
near the anchor but track external rates worse.

Randomness is counter-based (numpy Philox) with a fixed derivation rule:
the external-rate stream uses SeedSequence([seed, 0]) and run j's trade
stream uses SeedSequence([seed, 1, j]), so batches reuse one external
series across stabilities and runs while runs stay independent.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from math import isfinite, nan
from numbers import Integral
from typing import Optional

import numpy as np

from ammix.core import CurveParams, MarketState, MixSpec, spot_rate
from ammix.errors import InvalidParameterError, OutOfRangeError
from ammix.exchange import Currency
from ammix.parametrize import point_at, state_for_x, state_for_y
from ammix.schedules import S_MAX, S_MIN, PowerLaw, _refuse_bools

STABILITY_TO_EXPONENT = 8.0


@dataclass(frozen=True)
class SimConfig:
    """Simulation constants; the defaults reproduce the reference setup."""

    steps: int = 500
    init_state: MarketState = MarketState(3000.0, 1000.0)
    init_external_rate: float = 0.5
    rate_interval: int = 80
    rate_max_move: float = 0.2
    stability: float = 0.5
    max_extraction_frac: float = 0.02
    toward_prob: float = 0.9
    seed: int = 0
    runs: int = 100

    def __post_init__(self) -> None:
        # refused here, not by numpy or range() deep inside run_sim or batch_summary
        # bool is an Integral, but True is not a count
        for name, least in (("steps", 0), ("rate_interval", 1), ("runs", 1)):
            value = getattr(self, name)
            if isinstance(value, bool) or not (isinstance(value, Integral) and value >= least):
                raise InvalidParameterError(
                    f"{name} must be an integer >= {least}, got {value!r}")
        _refuse_bools(self, "init_external_rate", "rate_max_move", "stability",
                      "max_extraction_frac", "toward_prob")
        if not (isfinite(self.init_external_rate) and self.init_external_rate > 0.0):
            raise InvalidParameterError("init_external_rate must be positive")
        if not 0.0 <= self.rate_max_move < 1.0:
            raise InvalidParameterError("rate_max_move must be in [0, 1)")
        if not 0.0 <= self.stability <= 1.0:
            raise InvalidParameterError("stability must be in [0, 1]")
        if not 0.0 <= self.max_extraction_frac < 1.0:
            raise InvalidParameterError("max_extraction_frac must be in [0, 1)")
        if not 0.0 <= self.toward_prob <= 1.0:
            raise InvalidParameterError("toward_prob must be in [0, 1]")
        # numpy's SeedSequence takes only non-negative integers
        if isinstance(self.seed, bool) or not (isinstance(self.seed, Integral) and self.seed >= 0):
            raise InvalidParameterError(f"seed must be a non-negative integer, got {self.seed!r}")

    @property
    def schedule_exponent(self) -> float:
        return STABILITY_TO_EXPONENT * self.stability


def curve_for(config: SimConfig) -> tuple[CurveParams, MixSpec]:
    """The pool the simulation runs on, anchored at the initial state/rate.

    stability = 0 maps to the uniform constant-product curve (the power-law
    schedule needs a positive exponent); anything above uses the power-law
    schedule with exponent 8 * stability.
    """
    params = CurveParams(
        a=config.init_external_rate,
        b=1.0,
        x0=config.init_state.x,
        y0=config.init_state.y,
    )
    if config.stability == 0.0:
        return params, MixSpec.homotopy(1.0)
    return params, MixSpec.scheduled(PowerLaw(config.schedule_exponent))


def _external_rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(np.random.SeedSequence([seed, 0])))


def _run_rng(seed: int, run_index: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(np.random.SeedSequence([seed, 1, run_index])))


def gen_external_rates(config: SimConfig, rng: np.random.Generator) -> np.ndarray:
    """Piecewise-constant external rate series of length steps + 1.

    The rate starts at the configured value and is multiplied by
    (1 + u), u ~ Uniform[-rate_max_move, +rate_max_move], at every positive
    multiple of rate_interval.
    """
    rates = np.empty(config.steps + 1)
    rate = config.init_external_rate
    rates[0] = rate
    for i in range(1, config.steps + 1):
        if i % config.rate_interval == 0:
            rate *= 1.0 + rng.uniform(-config.rate_max_move, config.rate_max_move)
        rates[i] = rate
    return rates


@dataclass(frozen=True)
class TradeRecord:
    """One executed (or skipped) trade: what was extracted and at what price."""

    extracted: Optional[Currency]
    output_amount: float
    input_amount: float
    slippage: float


_NO_TRADE = TradeRecord(None, 0.0, 0.0, nan)


def sim_step(state: MarketState, params: CurveParams, mix: MixSpec,
             external_rate: float, config: SimConfig,
             rng: np.random.Generator) -> tuple[MarketState, TradeRecord]:
    """One trade: direction biased toward closing the internal/external gap.

    Draw order per step: (tie-break coin when rates are equal), direction
    coin, then the size fraction, uniform on (0, max_extraction_frac] of
    the extracted currency's reserve.  Draws the curve cannot fill are
    clamped to the boundary state.
    """
    if config.max_extraction_frac <= 0.0:
        return state, _NO_TRADE
    internal = spot_rate(params, mix, state)
    if external_rate > internal:
        toward = Currency.CUR1
    elif external_rate < internal:
        toward = Currency.CUR2
    else:
        toward = Currency.CUR1 if rng.random() < 0.5 else Currency.CUR2
    if rng.random() < config.toward_prob:
        extracted = toward
    else:
        extracted = Currency.CUR2 if toward is Currency.CUR1 else Currency.CUR1
    frac = config.max_extraction_frac * (1.0 - rng.random())
    if extracted is Currency.CUR1:
        try:
            new_state = state_for_x(params, mix, state.x - frac * state.x)
        except OutOfRangeError:
            new_state = point_at(params, mix, S_MIN)
        out = state.x - new_state.x
        paid = new_state.y - state.y
        p1 = 1.0 / internal
    else:
        try:
            new_state = state_for_y(params, mix, state.y - frac * state.y)
        except OutOfRangeError:
            new_state = point_at(params, mix, S_MAX)
        out = state.y - new_state.y
        paid = new_state.x - state.x
        p1 = internal
    if paid > 0.0:
        p2 = out / paid
        slip = abs(p1 - p2) / p1
    else:
        slip = nan
    return new_state, TradeRecord(extracted, out, paid, slip)


@dataclass
class SimTrace:
    """Per-step series of a single run; index 0 is the initial record."""

    config: SimConfig
    params: CurveParams
    mix: MixSpec
    x: np.ndarray
    y: np.ndarray
    internal_rate: np.ndarray
    external_rate: np.ndarray
    extracted: list
    trade_output: np.ndarray
    trade_input: np.ndarray
    slippage: np.ndarray

    def __len__(self) -> int:
        return len(self.x)

    def state(self, i: int) -> MarketState:
        return MarketState(self.x[i], self.y[i])

    def mse_internal_external(self, start: int = 1) -> float:
        """Mean squared internal-vs-external rate gap from step start to the end."""
        d = self.internal_rate[start:] - self.external_rate[start:]
        return float(np.mean(d * d)) if len(d) else 0.0

    def mean_slippage(self, start: int, stop: int) -> float:
        """Mean finite slippage from step start to step stop."""
        s = self.slippage[start:stop + 1]
        s = s[np.isfinite(s)]
        return float(np.mean(s)) if len(s) else 0.0


def _run_with(config: SimConfig, params: CurveParams, mix: MixSpec,
              external: np.ndarray, rng: np.random.Generator) -> SimTrace:
    rates = external.tolist()
    state = config.init_state
    states, recs = [state], [TradeRecord(None, nan, nan, nan)]
    internal = [spot_rate(params, mix, state)]
    for i in range(1, config.steps + 1):
        state, rec = sim_step(state, params, mix, rates[i], config, rng)
        states.append(state)
        recs.append(rec)
        internal.append(spot_rate(params, mix, state))
    f64 = np.float64
    return SimTrace(
        config=config, params=params, mix=mix,
        x=np.array([st.x for st in states], f64), y=np.array([st.y for st in states], f64),
        internal_rate=np.array(internal, f64), external_rate=np.array(external),
        extracted=[rec.extracted for rec in recs],
        trade_output=np.array([rec.output_amount for rec in recs], f64),
        trade_input=np.array([rec.input_amount for rec in recs], f64),
        slippage=np.array([rec.slippage for rec in recs], f64),
    )


def run_sim(config: SimConfig) -> SimTrace:
    """One deterministic run; identical configs yield identical traces."""
    params, mix = curve_for(config)
    external = gen_external_rates(config, _external_rng(config.seed))
    return _run_with(config, params, mix, external, _run_rng(config.seed, 0))


EARLY_WINDOW = 100
FINAL_WINDOW = 100


@dataclass(frozen=True)
class SimSummary:
    """Averaged run statistics at one stability setting."""

    stability: float
    mse_internal_external: float
    early_window_slippage: float
    final_window_mse: float


def summarize(trace: SimTrace) -> SimSummary:
    steps = trace.config.steps
    return SimSummary(
        stability=trace.config.stability,
        mse_internal_external=trace.mse_internal_external(),
        early_window_slippage=trace.mean_slippage(1, EARLY_WINDOW),
        final_window_mse=trace.mse_internal_external(max(1, steps - FINAL_WINDOW)),
    )


def batch_summary(config: SimConfig, stabilities: list[float]) -> list[SimSummary]:
    """Averaged statistics per stability, ``config.runs`` runs each.

    The external-rate series is generated once from the batch seed and
    reused by every run at every stability; run j always draws its trades
    from the same substream, so stabilities are compared on paired noise.
    """
    if not stabilities:
        raise InvalidParameterError("stabilities must be non-empty")
    external = gen_external_rates(config, _external_rng(config.seed))
    summaries = []
    for stability in stabilities:
        cfg = replace(config, stability=stability)
        params, mix = curve_for(cfg)
        mses, earlies, finals = [], [], []
        for j in range(config.runs):
            trace = _run_with(cfg, params, mix, external, _run_rng(config.seed, j))
            s = summarize(trace)
            mses.append(s.mse_internal_external)
            earlies.append(s.early_window_slippage)
            finals.append(s.final_window_mse)
        summaries.append(SimSummary(
            stability=stability,
            mse_internal_external=float(np.mean(mses)),
            early_window_slippage=float(np.mean(earlies)),
            final_window_mse=float(np.mean(finals)),
        ))
    return summaries
