import json

import pytest

from ammix import CurveParams, MarketState, MixSpec, eval_mixed
from ammix.cli import emit_table, run_command
from ammix.errors import AmmixError


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


def test_emit_json_two_rows():
    text = emit_table([{"a": 1.0, "b": 2.0}, {"a": 3.0, "b": 4.5}], "json")
    data = json.loads(text)
    assert data == [{"a": 1, "b": 2}, {"a": 3, "b": 4.5}]
    assert list(data[0].keys()) == ["a", "b"]


def test_emit_twelve_significant_digits():
    text = emit_table([{"v": 1.0 / 3.0}], "csv")
    assert text == "v\n0.333333333333\n"


# --- subcommands ----------------------------------------------------------------

def test_quote_cpmm(capsys):
    code, out, _ = run(capsys, "quote", "--mix", "cpmm", "--x", "1", "--y", "1",
                       "--sell", "cur1", "--amount", "1")
    assert code == 0
    lines = out.strip().split("\n")
    row = dict(zip(lines[0].split(","), lines[1].split(",")))
    assert float(row["output_amount"]) == pytest.approx(0.5, rel=1e-9)
    assert float(row["slippage"]) == pytest.approx(0.5, rel=1e-9)


def test_quote_infeasible_exit_4(capsys):
    code, _, err = run(capsys, "quote", "--mix", "csmm", "--x", "1", "--y", "1",
                       "--sell", "cur1", "--amount", "5")
    assert code == 4
    assert "error" in err


def test_quote_off_curve_exit_2(capsys):
    code, out, err = run(capsys, "quote", "--mix", "cpmm", "--x", "1", "--y", "2",
                         "--sell", "cur1", "--amount", "0.001")
    assert code == 2
    assert out == ""
    assert "off the curve" in err


def test_curve_sample_t_out_of_range_exit_2(capsys):
    code, _, err = run(capsys, "curve-sample", "--mix", "hom", "--t", "1.5")
    assert code == 2
    assert "error" in err


def test_unknown_flag_exit_2(capsys):
    code, _, _ = run(capsys, "curve-sample", "--mix", "hom", "--t", "0.5", "--bogus")
    assert code == 2


def test_unknown_subcommand_exit_2(capsys):
    code, _, _ = run(capsys, "no-such-command")
    assert code == 2


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


def test_il_table(capsys):
    code, out, _ = run(capsys, "il-table", "--mix", "cpmm", "--ratios", "4")
    assert code == 0
    row = out.strip().split("\n")[1].split(",")
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


def test_sim_run_requires_seed(capsys):
    code, _, _ = run(capsys, "sim-run", "--steps", "5")
    assert code == 2


def test_sim_run_reproducible(capsys):
    args = ("sim-run", "--seed", "42", "--steps", "40", "--stability", "0.5")
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2


def test_sim_sweep_small(capsys):
    code, out, _ = run(capsys, "sim-sweep", "--seed", "7", "--stabilities", "0.2,0.8",
                       "--runs", "2")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "stability,mse_internal_external,early_window_slippage,final_window_mse"
    assert len(lines) == 3


def test_stableswap_compare(capsys):
    code, out, _ = run(capsys, "stableswap-compare", "--amp", "1", "--scale", "2",
                       "--samples", "5")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "x,y,t_dynamic,uniform_residual"
    assert len(lines) == 6


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


def test_curve_sample_one_sample_exit_2(capsys):
    code, out, err = run(capsys, "curve-sample", "--mix", "hom", "--t", "0.5", "--samples", "1")
    assert code == 2
    assert out == ""
    assert "--samples" in err
