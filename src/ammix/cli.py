"""Command-line surface: curve sampling, certification, quoting, analysis
tables, Stableswap comparison, and simulation runs/sweeps.

The module parses arguments into library calls and formats what they
return; every solve is the library's.  ``curve-sample`` alone evaluates
the market's kernels in its own loop, one row per s.

Data goes to stdout as CSV (default) or JSON, diagnostics to stderr.
Numeric output is printed with 12 significant digits and identical seeded
invocations are byte-identical.  Exit codes: 0 success, 2 invalid
parameters or usage, 3 failed convexity certification, 4 infeasible trade.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, fields, replace
from functools import cache
from itertools import chain
from math import inf, isfinite
from typing import get_type_hints

from ammix import _kernels as k
from ammix.analysis import PriceVector, arbitrage_states, impermanent_loss, reduced_values
from ammix.core import CurveParams, Family, MarketState, MixSpec, eval_mixed, market
from ammix.errors import (
    AmmixError,
    InsufficientLiquidityError,
    InvalidParameterError,
    OutOfRangeError,
)
from ammix.exchange import Currency, quote
from ammix.schedules import (
    CONVEXITY_GRID_SIZE,
    Parabolic,
    PowerLaw,
    StableswapDynamic,
    Uniform,
    _check_reserves,
    check_convexity,
    stableswap_dynamic_y,
)
from ammix.simulate import SimConfig, batch_summary, run_sim

SAMPLE_INSET = 1e-4


def _fmt(value) -> str:
    """12-significant-digit rendering shared by both output formats."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        if not isfinite(value):
            return ""
        return f"{value:.12g}"
    return str(value)


def _fmt_json(value) -> str:
    """``_fmt`` with strings quoted and missing values as null."""
    if isinstance(value, str):
        return json.dumps(value)
    return _fmt(value) or "null"


def emit_table(rows: list[dict], format: str = "csv") -> str:
    """Serialize uniform-schema rows; byte-stable for identical inputs.

    Every field goes through ``_fmt`` (csv) or ``_fmt_json`` (json), but
    for one fast path: a csv table whose values are all exactly ``float``
    with a finite sum (so every value is) is one "%.12g" template, which
    renders a finite float as ``_fmt`` does.  Finite values whose sum
    overflows take the field-by-field path, which renders them alike.
    """
    if not rows:
        raise AmmixError("no rows to emit")
    keys = list(rows[0])
    # a row's keys are unique, so the flat keys repeat ``keys`` only when
    # every row holds them in that order
    if list(chain.from_iterable(rows)) != keys * len(rows):
        bad = next(list(row) for row in rows if list(row) != keys)
        raise AmmixError(f"row schema mismatch: {bad!r} != {keys!r}")
    if format == "csv":
        head = ",".join(keys) + "\n"
        values = list(chain.from_iterable(map(dict.values, rows)))
        if set(map(type, values)) <= {float} and isfinite(sum(values)):
            template = ",".join(["%.12g"] * len(keys)) + "\n"
            return head + (template * len(rows)) % tuple(values)
        return head + "".join(",".join([_fmt(row[k]) for k in keys]) + "\n" for row in rows)
    if format == "json":
        names = [json.dumps(k) for k in keys]
        body = ",\n".join("{" + ",".join([f"{name}:{_fmt_json(row[k])}"
                                            for name, k in zip(names, keys)]) + "}"
                           for row in rows)
        return "[\n" + body + "\n]\n"
    raise AmmixError(f"unknown format {format!r}")


# the keys a --config file may hold, by section
_CONFIG_KEYS = {
    "curve": tuple(f.name for f in fields(CurveParams) if f.init),
    "sim": tuple(f.name for f in fields(SimConfig) if f.name != "init_state")
    + ("init_x", "init_y"),
}


def _load_config(path: str | None) -> dict:
    if not path:
        return {}
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise AmmixError("config file must hold a JSON object")
    # the keys are checked here, before the commands read any value
    for name, section in data.items():
        if name not in _CONFIG_KEYS:
            raise InvalidParameterError(f"unknown config key {name}")
        if not isinstance(section, dict):
            raise AmmixError(f"config section {name!r} must hold a JSON object")
        for key in section:
            if key not in _CONFIG_KEYS[name]:
                raise InvalidParameterError(f"unknown config key {name}.{key}")
    return data


def _config_number(section: str, key: str, value, integer: bool = False):
    """``value`` of the config key ``section.key``, refused unless it is a
    number (an integer if ``integer``); JSON true and false are not numbers."""
    if isinstance(value, bool) or not isinstance(value, int if integer else (int, float)):
        raise InvalidParameterError(f"config key {section}.{key} must be "
                                    f"{'an integer' if integer else 'a number'}, "
                                    f"got {json.dumps(value)}")
    return value


def _curve_from(ns: argparse.Namespace) -> CurveParams:
    curve_cfg = _load_config(ns.config).get("curve", {})
    values = {}
    for key in _CONFIG_KEYS["curve"]:
        v = getattr(ns, key)  # a flag overrides the config
        values[key] = _config_number("curve", key, curve_cfg.get(key, 1.0)) if v is None else v
    return CurveParams(**values)


_MIX_ALIASES = {"csmm": 0.0, "cpmm": 1.0}
_FAMILY_BY_NAME = {"arith": Family.ARITHMETIC, "geo": Family.GEOMETRIC, "hom": Family.HOMOTOPY}


def _schedule_from(ns: argparse.Namespace):
    name = getattr(ns, "schedule", None)
    if name is None:
        return None
    if name == "uniform":
        if ns.t is None:
            raise AmmixError("--schedule uniform requires --t")
        return Uniform(ns.t)
    if name == "powerlaw":
        if ns.k is None:
            raise AmmixError("--schedule powerlaw requires --k")
        return PowerLaw(ns.k)
    # parabolic: argparse's choices refuse any other name
    if ns.bias is None or ns.center is None:
        raise AmmixError("--schedule parabolic requires --bias and --center")
    return Parabolic(bias=ns.bias, center=ns.center)


def _mix_from(ns: argparse.Namespace) -> MixSpec:
    alias = ns.mix
    if alias in _MIX_ALIASES:
        return MixSpec.arithmetic(_MIX_ALIASES[alias])
    family = _FAMILY_BY_NAME[alias]
    schedule = _schedule_from(ns)
    if schedule is not None:
        return MixSpec(family, schedule)
    if ns.t is None:
        raise AmmixError(f"--mix {alias} requires --t (or a --schedule for hom)")
    return MixSpec(family, Uniform(ns.t))


def _linspace(start: float, stop: float, n: int) -> list[float]:
    """The n >= 1 floats ``np.linspace(start, stop, n)`` returns: i*step +
    start with step = (stop - start)/(n - 1), and stop itself last.  As in
    numpy, a step that underflows to 0 is taken as (i/(n - 1))*(stop - start)."""
    if n == 1:
        return [start]
    delta = stop - start
    div = n - 1
    step = delta / div
    if step == 0.0:
        points = [i / div * delta + start for i in range(n)]
    else:
        points = [i * step + start for i in range(n)]
    points[-1] = stop
    return points


def _floats(text: str) -> list[float]:
    out = [float(part) for part in text.split(",") if part.strip()]
    if not out:
        raise AmmixError(f"empty number list: {text!r}")
    return out


def _cmd_curve_sample(ns: argparse.Namespace) -> tuple[str, int]:
    params = _curve_from(ns)
    mix = _mix_from(ns)
    n = ns.samples
    if n < 2:
        raise AmmixError(f"--samples must be >= 2, got {n}")
    # point_at's reserves and their check, on the market's unpacked codes;
    # every s lies in [SAMPLE_INSET, 1 - SAMPLE_INSET], inside [S_MIN, S_MAX]
    m = market(params, mix)
    family, kind, q0, q1, q2 = m.codes
    a, b, x0, y0, alpha, beta, c, s0 = m.curve
    lam_at = k.lam_at
    rows = []
    for i in range(n):
        s = SAMPLE_INSET + (1.0 - 2.0 * SAMPLE_INSET) * i / (n - 1)
        lam = lam_at(family, kind, q0, q1, q2, s, a, b, x0, y0, alpha, beta, c, s0)
        x, y = lam * s / a, lam * (1.0 - s) / b
        if not (0.0 < x < inf and 0.0 < y < inf):  # False for NaN
            _check_reserves(x, y)
        rows.append({"s": s, "x": x, "y": y})
    return emit_table(rows, ns.format), 0


def _cmd_convexity(ns: argparse.Namespace) -> tuple[str, int]:
    params = _curve_from(ns)
    schedule = _schedule_from(ns)
    if schedule is None:
        raise AmmixError("convexity requires --schedule")
    report = check_convexity(params, schedule, grid_size=ns.grid)
    return emit_table([asdict(report)], ns.format), 0 if report.passed else 3


def _cmd_quote(ns: argparse.Namespace) -> tuple[str, int]:
    params = _curve_from(ns)
    mix = _mix_from(ns)
    state = MarketState(ns.x, ns.y)
    currency = Currency(ns.sell)
    q = quote(params, mix, state, currency, ns.amount)
    # replacing a key keeps its place, so the columns stay in field order
    rows = [{**asdict(q), "input_currency": q.input_currency.value}]
    return emit_table(rows, ns.format), 0


def _cmd_il_table(ns: argparse.Namespace) -> tuple[str, int]:
    params = _curve_from(ns)
    mix = _mix_from(ns)
    init = params.initial_state
    r0 = params.a / params.b
    ratios = _floats(ns.ratios)
    prices = [PriceVector(ratio * r0, 1.0) for ratio in ratios]
    rows = []
    for ratio, p_f, x_f in zip(ratios, prices, arbitrage_states(params, mix, prices)):
        rows.append({"ratio": ratio, "il": impermanent_loss(p_f, init, x_f).il})
    return emit_table(rows, ns.format), 0


def _cmd_pvf_table(ns: argparse.Namespace) -> tuple[str, int]:
    params = _curve_from(ns)
    for flag, r in (("--r-min", ns.r_min), ("--r-max", ns.r_max)):
        if not (isfinite(r) and r > 0.0):
            raise InvalidParameterError(f"{flag} must be positive and finite, got {r!r}")
    if ns.r_points < 1:
        raise InvalidParameterError(f"--r-points must be >= 1, got {ns.r_points}")
    stabilities = _floats(ns.stabilities)
    for stability in stabilities:
        if not 0.0 <= stability <= 1.0:
            raise InvalidParameterError(f"--stabilities values must be in [0, 1], got {stability!r}")
    rates = _linspace(ns.r_min, ns.r_max, ns.r_points)
    rows = []
    for stability in stabilities:
        if ns.bias is None:
            mix = MixSpec.homotopy(1.0 - stability)
        else:
            center = 0.9 * (1.0 - stability) + 0.1 * stability
            mix = MixSpec.scheduled(Parabolic(bias=ns.bias, center=center))
        for r, value in zip(rates, reduced_values(params, mix, rates)):
            rows.append({"stability": stability, "r": r, "value": value})
    return emit_table(rows, ns.format), 0


def _cmd_stableswap_compare(ns: argparse.Namespace) -> tuple[str, int]:
    amp, scale = ns.amp, ns.scale
    dynamic = StableswapDynamic(amp, scale)  # refuses an amp or scale that is not positive and finite
    if ns.samples < 1:
        raise InvalidParameterError(f"--samples must be >= 1, got {ns.samples}")
    half = scale / 2.0
    first = 0.2 * half
    if first == 0.0:
        raise InvalidParameterError(f"--scale {scale!r} is too small: its first sample "
                                    f"x = 0.2*scale/2 rounds to 0")
    if 4.0 * scale == inf:
        raise InvalidParameterError(f"--scale {scale!r} is too large: the y-solve's "
                                    f"bracket top 4*scale overflows")
    params = CurveParams(1.0, 1.0, half, half)
    uniform = MixSpec.homotopy(ns.uniform_t)
    rows = []
    for x in _linspace(first, 2.5 * half, ns.samples):
        y = stableswap_dynamic_y(amp, scale, x)
        state = MarketState(x, y)
        rows.append({
            "x": x,
            "y": y,
            "t_dynamic": dynamic.weight(state),
            "uniform_residual": eval_mixed(params, uniform, state) - 1.0,
        })
    return emit_table(rows, ns.format), 0


# the keys of a config's "sim" section that take integers, SimConfig's int
# fields; the others take numbers
_SIM_INTEGERS = {name for name, hint in get_type_hints(SimConfig).items() if hint is int}


def _sim_config_from(ns: argparse.Namespace) -> SimConfig:
    sim_cfg = {key: _config_number("sim", key, v, key in _SIM_INTEGERS)
               for key, v in _load_config(ns.config).get("sim", {}).items()}
    init = SimConfig.init_state  # the field's default
    init_x = sim_cfg.pop("init_x", init.x)
    init_y = sim_cfg.pop("init_y", init.y)
    base = SimConfig(init_state=MarketState(init_x, init_y), **sim_cfg)
    overrides = {}
    for flag in ("steps", "stability", "runs", "seed"):
        v = getattr(ns, flag, None)
        if v is not None:
            overrides[flag] = v
    return replace(base, **overrides) if overrides else base


def _cmd_sim_run(ns: argparse.Namespace) -> tuple[str, int]:
    trace = run_sim(_sim_config_from(ns))
    # one column per series field of the trace, in field order: the arrays
    # as floats, the extracted currencies by value (None where no trade)
    columns = {}
    for f in fields(trace):
        series = getattr(trace, f.name)
        if isinstance(series, list):
            columns[f.name] = [getattr(cur, "value", None) for cur in series]
        elif hasattr(series, "tolist"):
            columns[f.name] = series.tolist()
    rows = [{"step": i, **dict(zip(columns, row))} for i, row in enumerate(zip(*columns.values()))]
    return emit_table(rows, ns.format), 0


def _cmd_sim_sweep(ns: argparse.Namespace) -> tuple[str, int]:
    sim_config = _sim_config_from(ns)
    rows = [asdict(s) for s in batch_summary(sim_config, _floats(ns.stabilities))]
    return emit_table(rows, ns.format), 0


def _add_curve_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--a", type=float, default=None, help="linear weight of currency 1")
    p.add_argument("--b", type=float, default=None, help="linear weight of currency 2")
    p.add_argument("--x0", type=float, default=None, help="initial reserve of currency 1")
    p.add_argument("--y0", type=float, default=None, help="initial reserve of currency 2")
    p.add_argument("--config", default=None, help="JSON config file; flags override it")


def _add_mix_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--mix", required=True, choices=["csmm", "cpmm", "arith", "geo", "hom"])
    p.add_argument("--t", type=float, default=None, help="uniform blend weight in [0, 1]")
    _add_schedule_flags(p)


def _add_schedule_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--schedule", choices=["uniform", "powerlaw", "parabolic"], default=None)
    p.add_argument("--k", type=float, default=None, help="power-law exponent")
    p.add_argument("--bias", type=float, default=None, help="parabolic t(0)")
    p.add_argument("--center", type=float, default=None, help="parabolic t(s0)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ammix",
        description="Mixed constant-sum/constant-product market maker toolkit",
    )
    parser.add_argument("--format", choices=["csv", "json"], default="csv")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("curve-sample", help="sample (s, x, y) points along a curve")
    _add_mix_flags(p)
    _add_curve_flags(p)
    p.add_argument("--samples", type=int, default=512)
    p.set_defaults(handler=_cmd_curve_sample)

    p = sub.add_parser("convexity", help="certify a schedule's curve convexity")
    _add_schedule_flags(p)
    p.add_argument("--t", type=float, default=None, help="uniform blend weight")
    _add_curve_flags(p)
    p.add_argument("--grid", type=int, default=CONVEXITY_GRID_SIZE)
    p.set_defaults(handler=_cmd_convexity)

    p = sub.add_parser("quote", help="price a swap without executing it")
    _add_mix_flags(p)
    _add_curve_flags(p)
    p.add_argument("--x", type=float, required=True)
    p.add_argument("--y", type=float, required=True)
    p.add_argument("--sell", required=True, choices=["cur1", "cur2"])
    p.add_argument("--amount", type=float, required=True)
    p.set_defaults(handler=_cmd_quote)

    p = sub.add_parser("il-table", help="impermanent loss against rate drift")
    _add_mix_flags(p)
    _add_curve_flags(p)
    p.add_argument("--ratios", default="0.25,0.5,2,4", help="final/initial rate ratios")
    p.set_defaults(handler=_cmd_il_table)

    p = sub.add_parser("pvf-table", help="reduced portfolio value over a rate grid")
    _add_curve_flags(p)
    p.add_argument("--stabilities", default="0,0.25,0.5,0.75,1")
    p.add_argument("--bias", type=float, default=None,
                   help="use a parabolic schedule with this bias instead of uniform blends")
    p.add_argument("--r-min", type=float, default=0.1)
    p.add_argument("--r-max", type=float, default=10.0)
    p.add_argument("--r-points", type=int, default=25)
    p.set_defaults(handler=_cmd_pvf_table)

    p = sub.add_parser("stableswap-compare",
                       help="trace the dynamic-blend Stableswap curve")
    p.add_argument("--amp", type=float, required=True)
    p.add_argument("--scale", type=float, required=True)
    p.add_argument("--samples", type=int, default=41)
    p.add_argument("--uniform-t", dest="uniform_t", type=float, default=0.5)
    p.set_defaults(handler=_cmd_stableswap_compare)

    p = sub.add_parser("sim-run", help="one seeded arbitrage simulation")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--stability", type=float, default=None)
    p.add_argument("--steps", type=int, default=None)
    p.add_argument("--config", default=None)
    p.set_defaults(handler=_cmd_sim_run, runs=None)

    p = sub.add_parser("sim-sweep", help="seeded stability sweep with averaged runs")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--stabilities", default=",".join(f"{0.05 * i:.2f}" for i in range(1, 20)))
    p.add_argument("--runs", type=int, default=None)
    p.add_argument("--config", default=None)
    p.set_defaults(handler=_cmd_sim_sweep, stability=None, steps=None)

    return parser


@cache
def _parser() -> argparse.ArgumentParser:
    """The parser ``run_command`` uses, built on first use and kept for the
    process: parsing leaves no state in it (each call gets a fresh
    namespace), and building it costs more than most commands."""
    return build_parser()


def run_command(argv: list[str]) -> int:
    """Parse and dispatch one invocation; returns the process exit code."""
    try:
        ns = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        text, code = ns.handler(ns)
    except (InsufficientLiquidityError, OutOfRangeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except (AmmixError, ValueError, TypeError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    sys.stdout.write(text)
    return code


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
