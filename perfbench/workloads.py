"""The three benchmark workloads: seeded inputs, the calls, and their checks.

Each workload is a closed loop with one caller in one thread.  Work comes
in *units* (one ``batch_summary`` call, one pass of quote requests, one
CLI command); unit ``i`` of seed ``n`` is always the same input.  The
first ``trace_units`` units are kept for the traced run.  A run times
units until ``--seconds`` of op time, or, where ``units_per_s`` is set, a
fixed number of units sized to about that time.
``run_unit`` makes the calls and times each op; ``check`` verifies the
outputs against the curve invariant afterwards, outside the timed region.

Failed ops are the program's typed errors (``AmmixError``, or the CLI's
exit codes 2 and 4 that report one).  Any other exception ends the run.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
import time
from dataclasses import dataclass, field, replace

import numpy as np

from ammix import (
    CurveParams,
    Currency,
    MarketState,
    MixSpec,
    Parabolic,
    PowerLaw,
    SimConfig,
    eval_mixed,
    point_at,
    run_sim,
)
# timed calls go through the module attributes, which the traced run wraps
from ammix import cli, exchange, simulate
from ammix.errors import AmmixError
from ammix.schedules import stableswap_dynamic_residual

ON_CURVE_TOL = 1e-9
# CLI tables print 12 significant digits; a ratio of two such numbers is
# known to about 1e-11, so successive values may not move backwards by more.
PRINTED_REL_TOL = 1e-9

clock = time.perf_counter_ns


def rng_for(seed: int, *key: int) -> np.random.Generator:
    """Independent, reproducible stream for (seed, key...)."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, *key])))


def log_uniform(rng: np.random.Generator, lo: float, hi: float) -> float:
    return float(math.exp(rng.uniform(math.log(lo), math.log(hi))))


def stratified(rng: np.random.Generator, n: int, lo: float, hi: float, log: bool = False) -> list:
    """n draws, one from each of n equal slices of [lo, hi], in random order."""
    u = (rng.permutation(n) + rng.random(n)) / n
    if log:
        return [float(math.exp(math.log(lo) + v * (math.log(hi) - math.log(lo)))) for v in u]
    return [float(lo + v * (hi - lo)) for v in u]


def on_curve(params: CurveParams, mix: MixSpec, state: MarketState, tol: float = ON_CURVE_TOL) -> bool:
    return abs(eval_mixed(params, mix, state) - 1.0) <= tol


@dataclass
class UnitResult:
    ops: int = 0
    failed: int = 0
    busy_ns: int = 0  # time inside the calls, failed ones included
    latencies_ns: list = field(default_factory=list)  # successful ops (sweep: whole calls)
    outputs: list = field(default_factory=list)
    stdout_bytes: int = 0


MIXES = {"arith": MixSpec.arithmetic, "geo": MixSpec.geometric, "hom": MixSpec.homotopy}


# -- sweep -------------------------------------------------------------------

class Sweep:
    """``simulate.batch_summary`` over the criterion-09 stability grid.

    One unit is one call with one 500-step path per stability and its own
    simulation seed; the op is one simulated trade step.
    """

    name = "sweep"
    trace_units = 1
    units_per_s = None  # time-bounded: no step fails, so any count of units agrees
    STABILITIES = [round(0.1 * i, 2) for i in range(1, 10)]
    STEPS = 500
    RUNS = 1

    def __init__(self, seed: int):
        self.seed = seed
        # part of the measured set-up; batch_summary builds its own per call
        self.curves = [simulate.curve_for(SimConfig(stability=s)) for s in self.STABILITIES]

    def make_unit(self, index: int) -> SimConfig:
        sim_seed = int(np.random.SeedSequence([self.seed, 2, index]).generate_state(1)[0])
        return SimConfig(seed=sim_seed, steps=self.STEPS, runs=self.RUNS)

    def run_unit(self, config: SimConfig) -> UnitResult:
        steps = len(self.STABILITIES) * config.runs * config.steps
        res = UnitResult(ops=steps)
        t0 = clock()
        try:
            summaries = simulate.batch_summary(config, self.STABILITIES)
        except AmmixError:
            res.busy_ns += clock() - t0
            res.failed = steps
            return res
        res.busy_ns += clock() - t0
        res.latencies_ns.append(res.busy_ns)
        res.outputs = summaries
        return res

    def check(self, config: SimConfig, res: UnitResult) -> int:
        """Bad outputs: non-finite summaries, and off-curve states of one
        re-run path drawn from the seed."""
        if res.failed:
            return 0
        bad = 0
        if len(res.outputs) != len(self.STABILITIES):
            bad += 1
        for s in res.outputs:
            if not all(map(math.isfinite, (s.mse_internal_external, s.early_window_slippage,
                                           s.final_window_mse))):
                bad += 1
        stability = float(rng_for(config.seed, 3).choice(self.STABILITIES))
        trace = run_sim(replace(config, stability=stability))
        if not all(on_curve(trace.params, trace.mix, trace.state(i)) for i in range(len(trace))):
            bad += 1
        return bad


# -- quotes ------------------------------------------------------------------

@dataclass(frozen=True)
class Pool:
    kind: str
    params: CurveParams
    mix: MixSpec
    start: MarketState


class Quotes:
    """A seeded stream of ``exchange.quote`` reads and ``exchange.swap`` writes.

    Four pools each of six kinds: arithmetic, geometric and homotopy mixes
    with uniform t, homotopy power laws with k <= 1 and with k > 1, and
    parabolic schedules.  Pool constants are drawn stratified per kind, so
    that every seed gets a similar spread of pools.  Pools start a little
    off their anchor state; every pass (one unit) restarts them there, and
    a swap's post-trade state becomes that pool's next state.  Per pool and
    pass: 20 requests, of which 2 sit at the anchor state, 6 are swaps and
    10 sell currency 2.  Anchor-state requests on k <= 1 power laws raise
    "no derivative at s0" at this commit; they stay in the stream as
    counted failures.
    """

    name = "quotes"
    trace_units = 1
    units_per_s = None  # time-bounded: every pass fails the same 1/60 of its requests
    KINDS = ("arith", "geo", "hom", "pow_le1", "pow_gt1", "parab")
    POOLS_PER_KIND = 4
    PER_POOL = 20
    ANCHOR = 2
    SWAPS = 6
    SELL_CUR2 = 10
    FRAC_MIN, FRAC_MAX = 1e-6, 0.03

    def __init__(self, seed: int):
        self.seed = seed
        rng = rng_for(seed, 0)
        self.pools = [pool for kind in self.KINDS for pool in self._pools(kind, rng)]

    @classmethod
    def _pools(cls, kind: str, rng: np.random.Generator) -> list:
        n = cls.POOLS_PER_KIND
        a = stratified(rng, n, 0.5, 2.0, log=True)
        x0 = stratified(rng, n, 500.0, 2000.0, log=True)
        y0 = stratified(rng, n, 500.0, 2000.0, log=True)
        shift = stratified(rng, n, -0.3, 0.3)
        if kind in ("arith", "geo", "hom"):
            make = MIXES[kind]
            mixes = [make(t) for t in stratified(rng, n, 0.1, 0.9)]
        elif kind == "pow_le1":
            mixes = [MixSpec.scheduled(PowerLaw(k)) for k in stratified(rng, n, 0.5, 1.0)]
        elif kind == "pow_gt1":
            mixes = [MixSpec.scheduled(PowerLaw(k)) for k in stratified(rng, n, 1.5, 4.0)]
        else:
            mixes = [MixSpec.scheduled(Parabolic(bias, center)) for bias, center in
                     zip(stratified(rng, n, 0.4, 0.6), stratified(rng, n, 0.3, 0.7))]
        pools = []
        for i, mix in enumerate(mixes):
            params = CurveParams(a[i], 1.0, x0[i], y0[i])
            # start off the anchor, where derivatives exist for every schedule
            logit = math.log(params.s0 / (1.0 - params.s0)) + math.copysign(0.05 + abs(shift[i]), shift[i])
            pools.append(Pool(kind, params, mix, point_at(params, mix, 1.0 / (1.0 + math.exp(-logit)))))
        return pools

    def make_unit(self, index: int) -> list:
        """Requests (pool, at_anchor, is_swap, currency, fraction of the sold reserve)."""
        rng = rng_for(self.seed, 1, index)
        requests = []
        for p in range(len(self.pools)):
            anchor = rng.permutation(self.PER_POOL) < self.ANCHOR
            swaps = rng.permutation(self.PER_POOL) < self.SWAPS
            cur2 = rng.permutation(self.PER_POOL) < self.SELL_CUR2
            fracs = np.exp(rng.uniform(math.log(self.FRAC_MIN), math.log(self.FRAC_MAX), self.PER_POOL))
            for j in range(self.PER_POOL):
                requests.append((p, bool(anchor[j]), bool(swaps[j]),
                                 Currency.CUR2 if cur2[j] else Currency.CUR1, float(fracs[j])))
        return [requests[i] for i in rng.permutation(len(requests))]

    def run_unit(self, requests: list) -> UnitResult:
        res = UnitResult()
        states = [pool.start for pool in self.pools]
        for p, at_anchor, is_swap, currency, frac in requests:
            pool = self.pools[p]
            state = pool.params.initial_state if at_anchor else states[p]
            amount = frac * (state.x if currency is Currency.CUR1 else state.y)
            res.ops += 1
            t0 = clock()
            try:
                if is_swap:
                    new_state, q = exchange.swap(pool.params, pool.mix, state, currency, amount)
                else:
                    q = exchange.quote(pool.params, pool.mix, state, currency, amount)
            except AmmixError:
                res.busy_ns += clock() - t0
                res.failed += 1
                continue
            elapsed = clock() - t0
            res.busy_ns += elapsed
            res.latencies_ns.append(elapsed)
            if is_swap:
                states[p] = new_state
            else:
                new_state = None
            res.outputs.append((p, state, currency, amount, q.output_amount, new_state))
        return res

    def check(self, requests: list, res: UnitResult) -> int:
        """Bad outputs: output outside (0, reserve), or a post-trade state off the curve."""
        bad = 0
        for p, state, currency, amount, output, new_state in res.outputs:
            pool = self.pools[p]
            if currency is Currency.CUR1:
                reserve = state.y
                post = new_state or MarketState(state.x + amount, state.y - output)
            else:
                reserve = state.x
                post = new_state or MarketState(state.x - output, state.y + amount)
            if not (0.0 < output < reserve and on_curve(pool.params, pool.mix, post)):
                bad += 1
        return bad


# -- tables ------------------------------------------------------------------

@dataclass(frozen=True)
class Command:
    kind: str
    argv: list
    curve: tuple = ()  # (a, x0, y0) passed to the command
    extra: dict = field(default_factory=dict)


COLUMNS = {
    "convexity": ["passed", "min_margin", "worst_s", "grid_size", "skipped"],
    "pvf-table": ["stability", "r", "value"],
    "il-table": ["ratio", "il"],
    "curve-sample": ["s", "x", "y"],
    "stableswap-compare": ["x", "y", "t_dynamic", "uniform_residual"],
}


class Tables:
    """A seeded list of in-process ``cli.run_command`` calls, stdout captured.

    One unit is one command; the kinds in ``KINDS`` take turns, so every
    run holds them in equal shares (certificates twice, so that the median
    falls inside a group of similar commands).  Each command draws its own
    curve constants and schedule, so the certificate cache in ``analysis``
    sees what a fresh CLI process sees.  Parabolic schedules are drawn from
    bias in [0.4, 0.6] and t(s0) in [0.3, 0.7], where they are valid and
    convex.  The traced run takes one command of each kind.

    Which commands hit the known defect depends on the drawn constants, so
    the share of failed commands differs from unit to unit.  A run is
    therefore a fixed number of commands, ``units_per_s`` per second asked
    for, and every run of a seed attempts, and fails, the same commands.
    20 commands take about a second on the 2-CPU machine this was tuned on.
    """

    name = "tables"
    units_per_s = 20
    KINDS = ("convexity-powerlaw", "convexity-parabolic", "pvf-table", "pvf-table-bias",
             "il-table", "il-table-scheduled", "curve-sample", "stableswap-compare")

    def __init__(self, seed: int):
        self.seed = seed

    @property
    def trace_units(self) -> int:
        return len(self.KINDS)

    def make_unit(self, index: int) -> list:
        rng = rng_for(self.seed, 4, index)
        return [self._command(self.KINDS[index % len(self.KINDS)], rng)]

    @staticmethod
    def _command(kind: str, rng: np.random.Generator) -> Command:
        a, x0, y0 = (log_uniform(rng, 0.5, 2.0) for _ in range(3))
        curve = ["--a", repr(a), "--x0", repr(x0), "--y0", repr(y0)]

        def parabolic():
            return ["--schedule", "parabolic", "--bias", repr(rng.uniform(0.4, 0.6)),
                    "--center", repr(rng.uniform(0.3, 0.7))]

        def uniform_mix():
            mix = ("arith", "geo", "hom")[int(rng.integers(3))]
            return mix, ["--mix", mix, "--t", repr(rng.uniform(0.1, 0.9))]

        extra = {}
        if kind == "convexity-powerlaw":
            argv = ["convexity", "--schedule", "powerlaw", "--k", repr(rng.uniform(1.5, 6.0)), *curve]
        elif kind == "convexity-parabolic":
            argv = ["convexity", *parabolic(), *curve]
        elif kind == "pvf-table":
            # the rate grid spans the anchor rate a/b = a, as the default does at a = 1
            argv = ["pvf-table", "--r-points", "101", "--r-min", repr(0.1 * a),
                    "--r-max", repr(10.0 * a), *curve]
        elif kind == "pvf-table-bias":
            argv = ["pvf-table", "--stabilities", "0.25,0.75", "--r-points", "9",
                    "--bias", repr(rng.uniform(0.4, 0.6)), *curve]
        elif kind == "il-table":
            _, mix = uniform_mix()
            argv = ["il-table", *mix, *curve]
        elif kind == "il-table-scheduled":
            argv = ["il-table", "--mix", "hom", *parabolic(), *curve]
        elif kind == "curve-sample":
            name, mix = uniform_mix()
            extra = {"mix": MIXES[name](float(mix[-1]))}
            argv = ["curve-sample", *mix, *curve]
        else:
            amp, scale = log_uniform(rng, 0.5, 20.0), log_uniform(rng, 1.0, 10.0)
            extra = {"amp": amp, "scale": scale}
            argv = ["stableswap-compare", "--amp", repr(amp), "--scale", repr(scale)]
        return Command(kind, argv, (a, x0, y0), extra)

    def run_unit(self, commands: list) -> UnitResult:
        res = UnitResult()
        for cmd in commands:
            out, err = io.StringIO(), io.StringIO()
            res.ops += 1
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                t0 = clock()
                code = cli.run_command(cmd.argv)
                t1 = clock()
            text = out.getvalue()
            res.stdout_bytes += len(text.encode())
            res.busy_ns += t1 - t0
            if code in (2, 4):
                res.failed += 1
                continue
            res.latencies_ns.append(t1 - t0)
            res.outputs.append((cmd, code, text))
        return res

    def check(self, commands: list, res: UnitResult) -> int:
        return sum(not self._valid(cmd, code, text) for cmd, code, text in res.outputs)

    @staticmethod
    def _valid(cmd: Command, code: int, text: str) -> bool:
        command = cmd.argv[0]
        if code not in ((0, 3) if command == "convexity" else (0,)):
            return False
        rows = list(csv.reader(io.StringIO(text)))
        if not rows or rows[0] != COLUMNS[command] or len(rows) < 2:
            return False
        if command == "convexity":
            return len(rows) == 2 and rows[1][0] == ("true" if code == 0 else "false")
        try:
            table = [[float(v) for v in row] for row in rows[1:]]
        except ValueError:
            return False
        if command == "pvf-table":
            for prev, cur in zip(table, table[1:]):
                if cur[0] == prev[0] and cur[2] < prev[2] - PRINTED_REL_TOL * abs(prev[2]):
                    return False
            return True
        if command == "il-table":
            return all(il <= 0.0 for _, il in table)
        if command == "curve-sample":
            params = CurveParams(cmd.curve[0], 1.0, cmd.curve[1], cmd.curve[2])
            return all(on_curve(params, cmd.extra["mix"], MarketState(x, y)) for _, x, y in table)
        amp, scale = cmd.extra["amp"], cmd.extra["scale"]
        for x, y, _, _ in table:
            state = MarketState(x, y)
            size = 16.0 * amp * x * y + scale * scale
            if abs(stableswap_dynamic_residual(amp, scale, state)) > PRINTED_REL_TOL * size:
                return False
        return True


WORKLOADS = {cls.name: cls for cls in (Sweep, Quotes, Tables)}
