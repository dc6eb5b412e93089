import ast
import io
import json
import math
import random
import re
import shlex
import sys
import warnings
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from ammix import (
    ConvexityReport,
    CurveParams,
    MarketState,
    MixSpec,
    Parabolic,
    PriceVector,
    Quote,
    SimSummary,
    arbitrage_states,
    cli,
    eval_mixed,
    point_at,
)
from ammix._kernels import pure
from ammix.cli import emit_table, run_command
from ammix.errors import AmmixError
from conftest import Reject


def run(capsys, *argv):
    code = run_command(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# --- emit_table ---------------------------------------------------------------

def test_emit_csv_contract():
    assert emit_table([{"s": 0.5, "x": 1.0, "y": 1.0}], "csv") == "s,x,y\n0.5,1,1\n"


def test_emit_rejects_empty():
    with pytest.raises(AmmixError):
        emit_table([], "csv")


def test_emit_rejects_schema_mismatch():
    with pytest.raises(AmmixError):
        emit_table([{"a": 1}, {"b": 2}], "csv")


@pytest.mark.parametrize("rows, bad", [
    ([{"a": 1.0, "b": 2.0}, {"b": 2.0, "a": 1.0}], ["b", "a"]),
    ([{"a": 1.0, "b": 2.0}, {"a": 1.0}, {"a": 1.0, "b": 2.0, "c": 3.0}], ["a"]),
    ([{"a": 1.0, "b": 2.0}, {"a": 1.0, "b": 2.0, "c": 3.0}, {"a": 1.0}], ["a", "b", "c"]),
    ([{}, {"a": 1.0}], ["a"]),
])
def test_emit_rejects_reordered_or_uneven_rows(rows, bad):
    """Keys in another order, or rows whose key counts even out over the
    table, are refused, naming the first row that differs."""
    for format in ("csv", "json"):
        with pytest.raises(AmmixError, match=re.escape(f"{bad!r} != {list(rows[0])!r}")):
            emit_table(rows, format)


def test_emit_json_two_rows():
    text = emit_table([{"a": 1.0, "b": 2.0}, {"a": 3.0, "b": 4.5}], "json")
    data = json.loads(text)
    assert data == [{"a": 1, "b": 2}, {"a": 3, "b": 4.5}]
    assert list(data[0].keys()) == ["a", "b"]


def test_emit_twelve_significant_digits():
    text = emit_table([{"v": 1.0 / 3.0}], "csv")
    assert text == "v\n0.333333333333\n"


def _emit_by_field(rows, format):
    """emit_table as it was before its one-pass rendering: every field
    through ``_fmt`` (csv) or ``_fmt_json`` (json)."""
    keys = list(rows[0].keys())
    if format == "csv":
        lines = [",".join(keys)]
        lines.extend(",".join(cli._fmt(row[k]) for k in keys) for row in rows)
        return "\n".join(lines) + "\n"
    body = ",\n".join(
        "{" + ",".join(f"{json.dumps(k)}:{cli._fmt_json(row[k])}" for k in keys) + "}"
        for row in rows
    )
    return "[\n" + body + "\n]\n"


_EDGE_FLOATS = [-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e300, -1e300,
                1.7976931348623157e308, 1e16, math.nan, math.inf, -math.inf]


def _char(d):
    """A printable ASCII character half the time, else any code point but
    a surrogate."""
    if d.rng.random() < 0.5:
        return chr(d.rng.randrange(32, 127))
    code = d.rng.randrange(0x110000 - 0x800)
    return chr(code if code < 0xD800 else code + 0x800)


def _text(d, least, most):
    """A string of least-most characters."""
    return "".join(_char(d) for _ in range(d.integers(least, most)))


def _any_value(d):
    """Any float, an edge float, a numpy float64, an integer of up to 128
    bits, a bool, None or a string of 0-4 characters."""
    kind = d.rng.randrange(7)
    if kind == 0:
        return d.any_float()
    if kind == 1:
        return d.choice(_EDGE_FLOATS)
    if kind == 2:
        return np.float64(d.any_float())
    if kind == 3:
        return d.rng.getrandbits(d.choice([8, 32, 64, 128])) * d.choice([1, -1])
    if kind == 4:
        return d.choice([False, True])
    if kind == 5:
        return None
    return _text(d, 0, 4)


def _finite(d):
    """A finite float, or one of the finite edge floats."""
    return d.any_float(finite=True) if d.rng.random() < 0.5 else d.choice(_EDGE_FLOATS[:9])


def _table(d):
    """1-60 rows over 1-4 distinct keys of 1-4 characters: all finite
    floats, any values, or finite floats with one row of any values."""
    keys = []
    for _ in range(d.integers(1, 4)):
        key = _text(d, 1, 4)
        if key not in keys:
            keys.append(key)
    n = d.integers(1, 60)
    kind = d.choice(["finite", "any", "one odd row"])
    values = _any_value if kind == "any" else _finite
    rows = [{k: values(d) for k in keys} for _ in range(n)]
    if kind == "one odd row":
        rows[d.integers(0, n - 1)] = {k: _any_value(d) for k in keys}
    return rows


_EMIT_TABLE_EXAMPLES = [
    # finite floats whose sum overflows
    [{"v": 1.7976931348623157e308}, {"v": 1.7976931348623157e308}],
    # one NaN row among finite rows
    [{"a": 1.0, "b": 2.5}, {"a": math.nan, "b": 0.5}, {"a": 3.0, "b": 1e-300}],
    # float subclasses
    [{"x": np.float64(0.1), "y": 2.0}, {"x": np.float64(1e300), "y": -0.0}],
]


def test_emit_table_renders_every_field_as_fmt_does(draws):
    """A table whose values are all finite floats is one "%.12g" template;
    any other table (NaN, infinities, a sum that overflows, ints, bools,
    None, strings, float subclasses) is rendered field by field.  Both give
    what ``_fmt`` gives, in csv and in json."""
    for rows in [*_EMIT_TABLE_EXAMPLES, *draws(300, _table)]:
        for format in ("csv", "json"):
            assert emit_table(rows, format) == _emit_by_field(rows, format), rows


def _span(d):
    """(start, stop, n): finite floats whose difference is finite, and n in
    1-300."""
    start, stop = d.any_float(finite=True), d.any_float(finite=True)
    if not math.isfinite(stop - start):
        raise Reject
    return start, stop, d.integers(1, 300)


def test_linspace_is_numpys(draws):
    for start, stop, n in draws(500, _span):
        with np.errstate(over="ignore"):  # i*step may round past the largest float, as in Python
            want = np.linspace(start, stop, n).tolist()
        assert cli._linspace(start, stop, n) == want, (start, stop, n)


# --- subcommands ----------------------------------------------------------------

def test_quote_cpmm(capsys):
    code, out, _ = run(capsys, "quote", "--mix", "cpmm", "--x", "1", "--y", "1",
                       "--sell", "cur1", "--amount", "1")
    assert code == 0
    lines = out.strip().split("\n")
    row = dict(zip(lines[0].split(","), lines[1].split(",")))
    assert float(row["output_amount"]) == pytest.approx(0.5, rel=1e-9)
    assert float(row["slippage"]) == pytest.approx(0.5, rel=1e-9)


@pytest.mark.parametrize("sell", ["cur1", "cur2"])
def test_quote_tiny_arithmetic_trade_exit_0(capsys, sell):
    code, out, err = run(capsys, "--format", "json", "quote", "--mix", "arith", "--t", "0.5",
                         "--x0", "2", "--y0", "0.5", "--x", "4.999869298498733e-06",
                         "--y", "4.999864298629435", "--sell", sell, "--amount", "5e-15")
    assert (code, err) == (0, "")
    assert json.loads(out)[0]["output_amount"] > 0.0


def test_quote_solver_out_of_halvings_exit_2(capsys, monkeypatch):
    # from [S_MIN, S_MAX] the solve needs 47 halvings to reach its 1e-14 bracket
    monkeypatch.setattr(pure, "_MAX_ITER", 20)
    code, out, err = run(capsys, "quote", "--mix", "hom", "--t", "0.5", "--x", "1", "--y", "1",
                         "--sell", "cur1", "--amount", "0.3")
    assert (code, out) == (2, "")
    assert err.startswith("error: solve for x=1.3 not narrowed to 1e-14 in 20 halvings")
    assert "Traceback" not in err


def test_convexity_pass_exit_0(capsys):
    code, out, _ = run(capsys, "convexity", "--schedule", "powerlaw", "--k", "2")
    assert code == 0
    assert out.startswith("passed,")
    assert out.splitlines()[1].startswith("true,")


def test_convexity_fail_exit_3(capsys):
    code, out, _ = run(capsys, "convexity", "--schedule", "parabolic",
                       "--bias", "0.05", "--center", "0.15")
    assert code == 3
    assert out.splitlines()[1].startswith("false,")


@pytest.mark.parametrize("fmt, row", [
    ("csv", "false,,,30,0"),
    ("json", '{"passed":false,"min_margin":null,"worst_s":null,"grid_size":30,"skipped":0}'),
], ids=["csv", "json"])
def test_convexity_without_a_sampled_margin_exit_3(capsys, fmt, row):
    # t'' = k(k-1)/M^2 * u^(k-2) is inf*0 at every grid point: no margin is sampled
    code, out, _ = run(capsys, "--format", fmt, "convexity", "--schedule", "powerlaw",
                       "--k", "1e300", "--grid", "30")
    assert code == 3
    assert out.splitlines()[1] == row


def test_curve_sample_points_on_curve(capsys):
    code, out, _ = run(capsys, "curve-sample", "--mix", "geo", "--t", "0.5",
                       "--samples", "64")
    assert code == 0
    params = CurveParams(1, 1, 1, 1)
    mix = MixSpec.geometric(0.5)
    lines = out.strip().split("\n")
    assert lines[0] == "s,x,y"
    assert len(lines) == 65
    for line in lines[1:]:
        _, x, y = (float(v) for v in line.split(","))
        assert abs(eval_mixed(params, mix, MarketState(x, y)) - 1.0) <= 1e-10


def test_il_table(capsys, monkeypatch):
    """Ratios are to the curve's own rate a/b, through the console entry point."""
    for curve in ([], ["--a", "2", "--b", "4", "--x0", "2"]):
        monkeypatch.setattr(sys, "argv",
                            ["ammix", "il-table", "--mix", "cpmm", "--ratios", "4"] + curve)
        with pytest.raises(SystemExit, match="^0$"):
            cli.main()
        row = capsys.readouterr().out.strip().split("\n")[1].split(",")
        assert float(row[1]) == pytest.approx(2 * 2 / 5 - 1, abs=1e-8)  # 2*sqrt(4)/(1+4) - 1


def test_il_table_unconverged_solve_exit_2(capsys, monkeypatch):
    from ammix import analysis
    monkeypatch.setattr(analysis, "_MAX_RATE_EVALS", 1)
    code, out, err = run(capsys, "il-table", "--mix", "hom", "--t", "0.5", "--ratios", "2")
    assert (code, out) == (2, "")
    assert err.startswith("error: solve for 2.0 not narrowed") and "after 1 evaluations" in err
    assert "Traceback" not in err


def test_pvf_table_stability_ordering(capsys):
    code, out, _ = run(capsys, "pvf-table", "--stabilities", "0,0.5,1",
                       "--r-min", "2", "--r-max", "2", "--r-points", "1")
    assert code == 0
    lines = out.strip().split("\n")[1:]
    values = [float(line.split(",")[2]) for line in lines]
    assert values[0] >= values[1] >= values[2]


@pytest.mark.parametrize("extra", [(), ("--bias", "0.5")])
def test_pvf_table_descending_grid_is_the_ascending_one_reversed(capsys, extra):
    """Each stability's rows, solved from high rates to low, are the rows
    solved from low to high in reverse.  0.25 to 12.75 in 51 points is
    exact in binary either way, so both grids hold the same rates."""
    blocks = []
    for r_min, r_max in (("0.25", "12.75"), ("12.75", "0.25")):
        code, out, _ = run(capsys, "pvf-table", "--r-min", r_min, "--r-max", r_max,
                           "--r-points", "51", "--a", "1.3", "--x0", "0.7", "--y0", "1.6", *extra)
        assert code == 0
        rows = out.strip().split("\n")[1:]
        blocks.append([rows[i:i + 51] for i in range(0, len(rows), 51)])
    ascending, descending = blocks
    assert len(ascending) == 5
    assert [block[::-1] for block in descending] == ascending


def test_pvf_table_values_are_the_public_apis(capsys):
    """Every pvf-table value is ``PriceVector(r, 1.0).value_of`` the state
    ``arbitrage_states`` returns at r for the row's stability, bit for bit,
    on 30 seeded curves with uniform blends and --bias parabolic schedules,
    on ascending and descending grids."""
    rng = random.Random(17)
    real = cli.emit_table
    for case in range(30):
        bias = rng.uniform(0.4, 0.6) if case % 2 else None
        # parabolas stay in [0, 1] and convex where s0 is not far from 1/2
        width = 1.5 if bias is None else 0.35
        a, b, x0, y0 = (math.exp(rng.uniform(-width, width)) for _ in range(4))
        r_min = a / b * math.exp(rng.uniform(-4.0, -0.5))
        r_max = a / b * math.exp(rng.uniform(0.5, 4.0))
        if case % 3 == 2:
            r_min, r_max = r_max, r_min
        points = rng.randint(2, 40)
        stabilities = [0.25, 0.75] if bias is not None else [0.0, rng.uniform(0.0, 1.0), 1.0]
        argv = ["pvf-table", "--a", repr(a), "--b", repr(b), "--x0", repr(x0), "--y0", repr(y0),
                "--r-min", repr(r_min), "--r-max", repr(r_max), "--r-points", str(points),
                "--stabilities", ",".join(map(repr, stabilities))]
        if bias is not None:
            argv += ["--bias", repr(bias)]
        tables = []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(cli, "emit_table",
                       lambda r, format="csv": tables.append(r) or real(r, format))
            code, _, err = run(capsys, *argv)
        assert code == 0, (argv, err)
        rows = iter(tables[0])
        params = CurveParams(a, b, x0, y0)
        rates = cli._linspace(r_min, r_max, points)
        for stability in stabilities:
            if bias is None:
                mix = MixSpec.homotopy(1.0 - stability)
            else:
                mix = MixSpec.scheduled(Parabolic(bias=bias, center=0.9 * (1.0 - stability)
                                                  + 0.1 * stability))
            prices = [PriceVector(r, 1.0) for r in rates]
            for p, state in zip(prices, arbitrage_states(params, mix, prices)):
                row = next(rows)
                assert row == {"stability": stability, "r": p.p1, "value": p.value_of(state)}, argv
        assert next(rows, None) is None


def test_sim_run_reproducible(capsys):
    args = ("sim-run", "--seed", "42", "--steps", "40", "--stability", "0.5")
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2


def test_pvf_table_default_grid(capsys):
    code, out, _ = run(capsys, "pvf-table")
    assert (code, out.count("\n")) == (0, 1 + 5 * 25)  # 5 stabilities by 25 rates


def test_sim_sweep_small(tmp_path, capsys):
    """One row per default stability, 0.05 to 0.95 in steps of 0.05."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"sim": {"steps": 20}}))
    code, out, _ = run(capsys, "sim-sweep", "--seed", "7", "--runs", "2", "--config", str(cfg))
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "stability,mse_internal_external,early_window_slippage,final_window_mse"
    assert [line.split(",")[0] for line in lines[1:]] == [f"{i / 20:g}" for i in range(1, 20)]


def test_stableswap_compare(capsys):
    for samples in (5, 1):
        code, out, _ = run(capsys, "stableswap-compare", "--amp", "1", "--scale", "2",
                           "--samples", str(samples))
        lines = out.strip().split("\n")
        assert (code, lines[0]) == (0, "x,y,t_dynamic,uniform_residual")
        assert len(lines) == samples + 1


def test_config_file_round_trip(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"curve": {"a": 1, "b": 2, "x0": 3000, "y0": 1000}}))
    code, out, _ = run(capsys, "quote", "--mix", "cpmm", "--config", str(cfg),
                       "--x", "3000", "--y", "1000", "--sell", "cur1", "--amount", "1")
    assert code == 0
    row = out.strip().split("\n")[1].split(",")
    assert float(row[3]) == pytest.approx(0.5, rel=1e-9)  # spot_before = a/b


def test_json_format_flag(capsys):
    code, out, _ = run(capsys, "--format", "json", "quote", "--mix", "cpmm",
                       "--x", "1", "--y", "1", "--sell", "cur1", "--amount", "1")
    assert code == 0
    data = json.loads(out)
    assert data[0]["output_amount"] == pytest.approx(0.5, rel=1e-9)


def test_quote_at_cusped_anchor_uses_anchor_rate(capsys):
    code, out, _ = run(capsys, "quote", "--mix", "hom", "--schedule", "powerlaw", "--k", "1",
                       "--x", "1", "--y", "1", "--sell", "cur1", "--amount", "0.01")
    assert code == 0
    lines = out.strip().split("\n")
    row = dict(zip(lines[0].split(","), lines[1].split(",")))
    assert float(row["spot_before"]) == 1.0


@pytest.mark.parametrize("curve", [
    # the s recomputed from point_at(S_MIN) rounds below S_MIN
    ("--bias", "0.4500468369504867", "--center", "0.5614140591851392", "--a", "1.4696584954754803",
     "--x0", "0.8551673363496469", "--y0", "0.703125693887579"),
    # the s recomputed from point_at(S_MAX) rounds above S_MAX
    ("--bias", "0.44458215584937183", "--center", "0.38845876978569444", "--a", "0.6333031527414891",
     "--x0", "1.2207030873323292", "--y0", "1.977460075784775"),
])
def test_il_table_with_curve_end_states(capsys, curve):
    code, out, err = run(capsys, "il-table", "--mix", "hom", "--schedule", "parabolic", *curve)
    assert code == 0, err
    ils = [float(line.split(",")[1]) for line in out.strip().split("\n")[1:]]
    assert len(ils) == 4
    assert all(il <= 0.0 for il in ils)


# --- curve-sample rows against point_at -----------------------------------------

def _sample_mix(d):
    """(--mix, flags): a uniform t in [0, 1] on any family, or a power law
    with k in [0.1, 8] or a parabola on the homotopy."""
    kind = d.rng.randrange(3)
    if kind == 0:
        return d.choice(["arith", "geo", "hom"]), ["--t", repr(d.floats(0.0, 1.0))]
    if kind == 1:
        return "hom", ["--schedule", "powerlaw", "--k", repr(d.floats(0.1, 8.0))]
    return "hom", ["--schedule", "parabolic", "--bias", repr(d.floats(0.0, 1.0)),
                   "--center", repr(d.floats(0.0, 1.0))]


def _curve_constant(d):
    """A constant in [1e-3, 1e3], or one at the float range's edges, where
    the reserves or the anchor stop being representable."""
    if d.rng.random() < 0.5:
        return d.floats(1e-3, 1e3)
    return d.choice([1e-306, 1e-200, 1e200, 1e300])


def _sample_case(d):
    """(mix, a, b, x0, y0, n) with n in 2-40; constants CurveParams
    refuses are rejected."""
    mix = _sample_mix(d)
    a, b, x0, y0 = (_curve_constant(d) for _ in range(4))
    try:
        CurveParams(a, b, x0, y0)
    except AmmixError:
        raise Reject
    return mix, a, b, x0, y0, d.integers(2, 40)


def _sample_outcome(argv):
    """(exit code, the rows curve-sample passed to emit_table, stderr)."""
    rows = []
    real = cli.emit_table
    out, err = io.StringIO(), io.StringIO()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "emit_table", lambda r, format="csv": rows.append(r) or real(r, format))
        with redirect_stdout(out), redirect_stderr(err):
            code = run_command(argv)
    return code, rows[0] if rows else None, err.getvalue()


def test_curve_sample_rows_are_point_at_bit_for_bit(draws):
    """Every row is point_at's state at the row's s, bit for bit, for every
    family and schedule kind; where point_at refuses an s (reserves that
    are not positive and finite, a parabola leaving [0, 1]) the command
    exits 2 with point_at's message for the first such s."""
    for mix, a, b, x0, y0, n in draws(200, _sample_case):
        name, flags = mix
        argv = ["curve-sample", "--mix", name, *flags, "--a", repr(a), "--b", repr(b),
                "--x0", repr(x0), "--y0", repr(y0), "--samples", str(n)]
        params = CurveParams(a, b, x0, y0)
        cli_mix = cli._mix_from(cli._parser().parse_args(argv))
        code, rows, err = _sample_outcome(argv)
        want = []
        try:
            for i in range(n):
                s = cli.SAMPLE_INSET + (1.0 - 2.0 * cli.SAMPLE_INSET) * i / (n - 1)
                state = point_at(params, cli_mix, s)
                want.append({"s": s, "x": state.x, "y": state.y})
        except AmmixError as exc:
            assert (code, rows, err) == (2, None, f"error: {exc}\n"), argv
        else:
            assert (code, rows) == (0, want), (argv, err)


@pytest.mark.parametrize("argv", [
    ["curve-sample", "--mix", "arith", "--t", "0.5", "--x0", "1e154", "--y0", "1e154"],
    ["il-table", "--mix", "arith", "--t", "0.5", "--x0", "1e200", "--y0", "1e200"],
    ["quote", "--mix", "arith", "--t", "0.5", "--x0", "1e200", "--y0", "1e200", "--x", "1e200",
     "--y", "1e200", "--sell", "cur1", "--amount", "1e199"],
    ["curve-sample", "--mix", "arith", "--t", "0.5", "--x0", "1e-306", "--y0", "1e-306"],
], ids=["curve-sample", "il-table", "quote", "curve-sample-underflow"])
def test_arithmetic_curve_past_c_times_p_range_exit_0(capsys, argv):
    """C*P overflows on the first three curves and underflows to 0 on the
    last; lam_arith used to run into NaN and exit 2 with "did not
    converge", or raise ZeroDivisionError with a traceback."""
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    values = [float(v) for line in out.strip().split("\n")[1:]
              for v in line.split(",") if v not in ("cur1", "cur2")]
    assert values and all(math.isfinite(v) for v in values)


def test_homotopy_il_table_at_tiny_anchor_is_the_unit_table(capsys):
    """The anchor (1e-300, 1e-300) is the unit anchor scaled, and an IL
    table depends on the rate ratios alone: its stdout is the unit
    command's, byte for byte.  It exited 2 with "the invariant is not
    representable ... ZeroDivisionError" while the arbitrage solve took its
    rates at the reserves, whose squared a*x + b*y underflowed."""
    argv = ["il-table", "--mix", "hom", "--t", "0.5", "--ratios", "4"]
    tiny = run(capsys, *argv, "--x0", "1e-300", "--y0", "1e-300")
    assert tiny == run(capsys, *argv) == (0, "ratio,il\n4,-0.309499704837\n", "")


# --- refusals: the exit code and the one stderr line of each --------------------

_STABILITIES = "error: --stabilities values must be in [0, 1], got "
_FLOAT_RANGE = "error: the curve's terms leave the float range at x="
_RESERVES = "error: reserves must be positive and finite, got "

# (command line, exit code, stderr's last line)
_REFUSALS = [
    ("quote --mix csmm --x 1 --y 1 --sell cur1 --amount 5", 4,
     "error: trade of 5.0 cur1 exceeds the curve's reach"),
    ("quote --mix cpmm --x 1 --y 2 --sell cur1 --amount 0.001", 2,
     "error: state (1.0, 2.0) is off the curve: A(X) - 1 = 0.41421356237309515"),
    # trades below the solver's resolution
    *[(f"quote --mix {mix} --t 0.5 --x 1 --y 1 --sell {sell} --amount 1e-16", 2,
       f"error: trade of 1e-16 {sell} gives output 0.0, which is not positive and finite")
      for mix, sell in (("arith", "cur1"), ("arith", "cur2"), ("hom", "cur1"))],
    *[(f"quote --mix hom --t 0.5 --x 1 --y 1 --sell cur1 --amount={amount}", 2,
       f"error: trade amount must be positive and finite, got {float(amount)!r}")
      for amount in ("0", "-0.5", "inf", "nan")],
    # x/x0 underflows to 0, so A1 == 0 under the homotopy's negative power
    ("quote --mix hom --t 0.5 --x0 1e10 --x 1e-320 --y 1 --sell cur1 --amount 1", 2,
     "error: the invariant is not representable at reserves (1e-320, 1.0): "
     "ZeroDivisionError: 0.0 cannot be raised to a negative power"),
    ("quote --mix cpmm --y0 1e300 --x 9.999e+303 --y 1e+300 --sell cur2 "
     "--amount 6.150305336174553e+303", 2,  # the partials' ratio underflows to 0
     "error: spot rate 0.0 at reserves (9.999e+303, 1e+300) is not positive and finite"),
    ("quote --mix hom --t 0.19171569487091622 --a 0.00013738015707961775 --b 1e160 "
     "--y0 290.9866163112117 --x 3.66707704473e+165 --y 251.770950489 --sell cur1 "
     "--amount 1.5887714586464152e+161", 2,  # both partials overflow
     "error: spot rate nan at reserves (3.66707704473e+165, 251.770950489) "
     "is not positive and finite"),
    ("il-table --mix hom --t 0.5 --ratios 0.5 --a 1e300", 2,  # s0 rounds to 1
     "error: anchor ray coordinate s0 = a*x0/(a*x0 + b*y0) = 1.0 is not strictly inside (0, 1) "
     "for a=1e+300, b=1.0, x0=1.0, y0=1.0"),
    *[(f"curve-sample --mix hom --t {t}", 2,
       f"error: uniform blend weight must be in [0, 1], got {t}") for t in ("1.5", "1.0000005")],
    *[(f"convexity --schedule parabolic --bias {bias} --center {center}", 2, f"error: {line}")
      for bias, center, line in (
          ("1.0000005", "0.5", "bias must be in [0, 1], got 1.0000005"),
          ("0.5", "1.0000005", "center must be in [0, 1], got 1.0000005"),
          ("0", "0.7500158", "parabolic schedule leaves [0, 1]: t(0.999968) = 1"))],  # 1 + 1e-9
    # s0 = 1 - 3e-9: c2 and c1 round so that t(S_MAX) misses its pin 1 - bias = 0
    ("il-table --mix hom --schedule parabolic --bias 1 --center 0 --a 71.98636318447703 "
     "--b 65.61502859272154 --x0 0.30390023567803764 --y0 1e-09 --ratios 2", 2,
     "error: parabolic schedule leaves [0, 1]: t(1) = -2.99931e-09"),
    ("curve-sample --mix hom --t 0.5 --samples 1", 2, "error: --samples must be >= 2, got 1"),
    # x = lam*s/a overflows; then x, then y, underflows to 0
    ("curve-sample --mix hom --t 0.5 --a 1e-306", 2, _RESERVES + "(inf, 0.5010282778864971)"),
    ("curve-sample --mix csmm --x0 1e-321 --y0 1e-321 --samples 3", 2,
     _RESERVES + "(0.0, 1.996e-321)"),
    ("curve-sample --mix csmm --a 1e-300 --b 1e20 --y0 1e-321 --samples 3", 2,
     _RESERVES + "(1.0996912803338859, 0.0)"),
    ("convexity --schedule parabolic --bias 0.5", 2,
     "error: --schedule parabolic requires --bias and --center"),
    ("curve-sample --mix hom --t 0.5 --bogus", 2, "ammix: error: unrecognized arguments: --bogus"),
    ("no-such-command", 2,
     "ammix: error: argument command: invalid choice: 'no-such-command' (choose from "
     "'curve-sample', 'convexity', 'quote', 'il-table', 'pvf-table', 'stableswap-compare', "
     "'sim-run', 'sim-sweep')"),
    ("sim-run --steps 5", 2, "ammix sim-run: error: the following arguments are required: --seed"),
    *[(command, 2, "error: seed must be a non-negative integer, got -5") for command in (
        "sim-run --seed -5 --steps 3", "sim-sweep --seed -5 --stabilities 0.5 --runs 1")],
    ("il-table --mix csmm --y0 1e308 --ratios 1e300", 2,  # P.X past the float range
     "error: portfolio value P.X = inf is not finite at prices (1e+300, 1.0) "
     "and reserves (1e+296, 9.99999999999e+307)"),
    ("pvf-table --a 33879014162.370903 --b 66883.6801136716 --x0 2450048565.564313 "
     "--y0 527026.7313179814 --r-min 1.7976931348623157e308 --r-max 0.999999999999 "
     "--r-points 4 --stabilities 0.11218229918862466", 2,
     "error: portfolio value P.X = inf is not finite at prices (1.7976931348623157e+308, 1.0) "
     "and reserves (2175196438.89827, 1.1018160309668125e+27)"),
    *[(f"stableswap-compare --amp {amp} --scale 1", 2,
       f"error: amplification must be > 0, got {amp}") for amp in ("nan", "inf")],
    # the curve is all but constant-sum: its y at x = 1.25 > D lies below the
    # solver's floor
    ("stableswap-compare --amp 1e300 --scale 1 --samples 3", 2,
     "error: no y on the curve at x=1.25: the solve ends at y=1.0000000000000002e-12 with "
     "residual -4.0000000000128027e+288 against terms of size 2.0000000000000006e+289"),
    # the last scale puts 4*scale just below the largest float
    *[(f"stableswap-compare --amp 1 --scale {scale}", 2, f"{_FLOAT_RANGE}{x} ({exc})")
      for scale, x, exc in (("1e200 --samples 3", "1e+199", "OverflowError"),
                            ("1e-300 --samples 3", "1e-301", "ZeroDivisionError"),
                            ("4.49423e307", "4.49423e+306", "OverflowError"))],
    # scale/2 rounds to 0 at 5e-324, and the first sample x = 0.2*scale/2 at 2e-323
    *[(f"stableswap-compare --amp 1 --scale {scale}", 2,
       f"error: --scale {scale} is too small: its first sample x = 0.2*scale/2 rounds to 0")
      for scale in ("5e-324", "2e-323")],
    *[(f"stableswap-compare --amp 1 --scale {scale}{extra}", 2,
       f"error: --scale {float(scale)!r} is too large: the y-solve's bracket top 4*scale "
       "overflows") for scale, extra in (("4.5e307", ""), ("1.5e308", " --samples 3"))],
    *[(f"stableswap-compare --amp 1 --scale 1 --samples {samples}", 2,
       f"error: --samples must be >= 1, got {samples}") for samples in ("0", "-1")],
    ("pvf-table --r-max inf", 2, "error: --r-max must be positive and finite, got inf"),
    ("pvf-table --r-min 0", 2, "error: --r-min must be positive and finite, got 0.0"),
    *[(f"pvf-table --r-points {points}", 2, f"error: --r-points must be >= 1, got {points}")
      for points in ("0", "-1")],
    *[(f"pvf-table --stabilities {stabilities}{extra}", 2, _STABILITIES + bad)
      for extra in ("", " --bias 0.5")
      for stabilities, bad in (("1.5", "1.5"), ("0.5,-0.25", "-0.25"), ("nan", "nan"))],
    ("pvf-table --stabilities 1.0000005", 2, _STABILITIES + "1.0000005"),
]


def _refuses(tmp_path, capsys, argv, code, line, config=None):
    """A refusal: its exit code, no stdout, no warning, one stderr line."""
    if config is not None:
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        argv = [*argv, "--config", str(path)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = run_command(list(argv))
    out, err = capsys.readouterr()
    assert (got, out) == (code, "")
    if line.startswith("error: "):
        assert err == line + "\n"
    else:
        assert err.splitlines()[-1] == line


@pytest.mark.parametrize("command, code, line", _REFUSALS,
                         ids=[" ".join(shlex.split(command)) for command, _, _ in _REFUSALS])
def test_refusal(tmp_path, capsys, command, code, line):
    _refuses(tmp_path, capsys, shlex.split(command), code, line)


# The --config refusals are cross-products, generated over the same check.
_CURVE_SAMPLE = shlex.split("curve-sample --mix hom --t 0.5")
_SIM_RUN = shlex.split("sim-run --seed 1 --steps 3")


@pytest.mark.parametrize("section, argv", [("curve", _CURVE_SAMPLE), ("sim", _SIM_RUN)])
@pytest.mark.parametrize("value", [[], ["steps"], "steps", 3, 0.5])
def test_config_section_must_be_an_object(tmp_path, capsys, section, argv, value):
    _refuses(tmp_path, capsys, argv, 2,
             f"error: config section {section!r} must hold a JSON object", {section: value})


@pytest.mark.parametrize("section, key, argv", [
    ("sim", "steps", shlex.split("sim-run --seed 1")),
    ("sim", "stability", shlex.split("sim-sweep --seed 1 --stabilities 0.5 --runs 1")),
    ("sim", "init_x", _SIM_RUN),
    ("curve", "a", shlex.split("quote --mix cpmm --x 1 --y 1 --sell cur1 --amount 0.1")),
    ("curve", "y0", _CURVE_SAMPLE),
])
@pytest.mark.parametrize("value", [True, False, "3", None, [3]])
def test_config_numbers_refuse_non_numbers(tmp_path, capsys, section, key, argv, value):
    """JSON true is not 1: a boolean or any other non-number under a numeric
    key is refused, not run on a = 1 or 1 step."""
    kind = "an integer" if key == "steps" else "a number"
    _refuses(tmp_path, capsys, argv, 2, f"error: config key {section}.{key} must be {kind}, got "
             f"{json.dumps(value)}", {section: {key: value}})


def test_config_integer_key_refuses_a_float(tmp_path, capsys):
    _refuses(tmp_path, capsys, shlex.split("sim-sweep --seed 1 --stabilities 0.5"), 2,
             "error: config key sim.runs must be an integer, got 2.0", {"sim": {"runs": 2.0}})


# a misspelt section or key, whichever command reads the file; keys are
# checked before values
@pytest.mark.parametrize("config, key", [
    ({"curve": {"X0": 5}}, "curve.X0"), ({"curve": {"a": 2, "bogus": True}}, "curve.bogus"),
    ({"bogus": {}}, "bogus"), ({"sim": {"bogus": 1}}, "sim.bogus"),
    ({"sim": {"init_state": [1, 1]}}, "sim.init_state"),
    ({"curve": {"a": True, "X0": 5}}, "curve.X0"), ({"sim": {"steps": "3"}, "bogus": 1}, "bogus"),
])
@pytest.mark.parametrize("argv", [[*_CURVE_SAMPLE, "--samples", "2"], _SIM_RUN])
def test_config_refuses_unknown_keys(tmp_path, capsys, config, key, argv):
    _refuses(tmp_path, capsys, argv, 2, f"error: unknown config key {key}", config)


# each command reads its --config first, so a bad file is the error reported
# even when the flags are bad as well
@pytest.mark.parametrize("argv", [shlex.split(command) for command in (
    "curve-sample --mix hom", "convexity", "quote --mix geo --x 1 --y 1 --sell cur1 --amount 0.1",
    "il-table --mix arith --ratios ''", "pvf-table --r-points 0", "sim-run --seed 1 --stability 2",
    "sim-sweep --seed 1 --stabilities ''")])
def test_config_errors_come_before_flag_errors(tmp_path, capsys, argv):
    _refuses(tmp_path, capsys, argv, 2, "error: unknown config key bogus", {"bogus": {}})


# --- one parser per process -------------------------------------------------------

def test_run_command_builds_the_parser_once(capsys, monkeypatch):
    from ammix import cli
    build, built = cli.build_parser, []

    def counting_build():
        built.append(1)
        return build()

    monkeypatch.setattr(cli, "build_parser", counting_build)
    cli._parser.cache_clear()
    for _ in range(5):
        assert run(capsys, "il-table", "--mix", "cpmm", "--ratios", "4")[0] == 0
        assert run(capsys, "no-such-command")[0] == 2
    assert len(built) == 1
    assert build() is not build()


# every kind of ending: csv and json tables, a usage error, the typed exits 2,
# 3 and 4, and top-level and subcommand help
_INTERLEAVED = [
    ("quote", "--mix", "cpmm", "--x", "1", "--y", "1", "--sell", "cur1", "--amount", "1"),
    ("--format", "json", "pvf-table", "--stabilities", "0.25,1", "--r-points", "3"),
    ("il-table", "--mix", "geo", "--t", "0.6", "--ratios", "0.5,2"),
    ("quote", "--mix", "hom", "--t", "0.5", "--x", "1"),
    ("convexity", "--schedule", "parabolic", "--bias", "0.05", "--center", "0.15"),
    ("stableswap-compare", "--amp", "nan", "--scale", "1"),
    ("quote", "--mix", "csmm", "--x", "1", "--y", "1", "--sell", "cur1", "--amount", "5"),
    ("--help",),
    ("curve-sample", "--mix", "arith", "--t", "0.3", "--samples", "4", "--format", "json"),
    ("--format", "json", "curve-sample", "--mix", "arith", "--t", "0.3", "--samples", "4"),
    ("pvf-table", "--help"),
    ("sim-run", "--seed", "3", "--steps", "5"),
    ("convexity", "--schedule", "powerlaw", "--k", "2", "--grid", "101"),
]


def test_cached_parser_prints_what_a_fresh_one_prints(capsys):
    from ammix import cli
    fresh = []
    for argv in _INTERLEAVED:
        cli._parser.cache_clear()
        fresh.append(run(capsys, *argv))
    assert [code for code, _, _ in fresh] == [0, 0, 0, 2, 3, 2, 4, 0, 2, 0, 0, 0, 0]
    cli._parser.cache_clear()
    order = list(range(len(_INTERLEAVED)))
    for i in order + order[::-1]:
        assert run(capsys, *_INTERLEAVED[i]) == fresh[i], _INTERLEAVED[i]
    assert cli._parser.cache_info().misses == 1


# --- library records reach stdout through their own fields -----------------------

@pytest.mark.parametrize("record", [ConvexityReport, Quote, SimSummary])
def test_cli_restates_no_record_in_a_dict_display(record):
    """A record's row comes from ``asdict``: no dict display in cli.py lists
    the record's field names, so its columns have one home, the record."""
    names = {f.name for f in fields(record)}
    tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, ast.Dict):
            keys = {key.value for key in node.keys if isinstance(key, ast.Constant)}
            assert not names <= keys, f"cli.py:{node.lineno} restates {record.__name__}"


def test_cli_imports_no_solver_internals():
    """cli.py parses and formats: the solves it runs are the library's public
    functions, so it neither imports nor reaches for a bisection, the
    arbitrage solve or the dynamic curve's residual."""
    names = set()
    for node in ast.walk(ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    assert not names & {"_bisect", "_arbitrage_reserves", "dynamic_residual_xy"}
