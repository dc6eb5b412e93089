"""Tests of the benchmark itself: seeded inputs, span arithmetic, metric sets."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
for path in (BENCH, ROOT / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import layers  # noqa: E402
import run  # noqa: E402
from tracing import Span, Tracer, span_self_times  # noqa: E402
from workloads import WORKLOADS, Quotes, Sweep, Tables  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def tiny(name: str, seed: int = 5):
    """The workload at a size that runs in about a second."""
    wl = WORKLOADS[name](seed)
    if isinstance(wl, Sweep):
        wl.STEPS, wl.STABILITIES = 40, [0.1, 0.5, 0.9]
    elif isinstance(wl, Quotes):
        wl.PER_POOL, wl.ANCHOR, wl.SWAPS, wl.SELL_CUR2 = 4, 1, 1, 2
    elif isinstance(wl, Tables):
        wl.KINDS = ("convexity-parabolic", "pvf-table-bias", "il-table", "il-table-scheduled",
                    "curve-sample", "stableswap-compare")
    return wl


# -- seeded generators -------------------------------------------------------

@pytest.mark.parametrize("cls", [Sweep, Quotes, Tables])
def test_generators_are_deterministic(cls):
    a, b, other = cls(11), cls(11), cls(12)
    assert repr(a.make_unit(3)) == repr(b.make_unit(3))
    assert repr(a.make_unit(3)) != repr(a.make_unit(4))
    assert repr(a.make_unit(3)) != repr(other.make_unit(3))


def test_quote_pools_are_deterministic():
    assert Quotes(11).pools == Quotes(11).pools
    assert Quotes(11).pools != Quotes(12).pools


def test_quote_stream_shares_are_exact():
    wl = Quotes(3)
    requests = wl.make_unit(1)
    n = len(requests)
    assert n == len(wl.pools) * wl.PER_POOL
    assert sum(r[1] for r in requests) == n * wl.ANCHOR // wl.PER_POOL
    assert sum(r[2] for r in requests) == n * wl.SWAPS // wl.PER_POOL
    assert sum(r[3].value == "cur2" for r in requests) == n * wl.SELL_CUR2 // wl.PER_POOL


# -- self-time arithmetic ----------------------------------------------------

def test_span_self_times_on_nested_spans():
    # root [0, 100] -> a [10, 40] -> c [15, 25]; root -> b [50, 90] with 12 ns of hot calls
    spans = [
        Span("root", 0, 100, -1, 0),
        Span("a", 10, 40, 0, 0),
        Span("c", 15, 25, 1, 0),
        Span("b", 50, 90, 0, 0, cover=12),
    ]
    assert span_self_times(spans) == [100 - 30 - 40, 30 - 10, 10, 40 - 12]
    assert sum(span_self_times(spans)) == 100 - 12


def test_tracer_splits_time_between_spans_and_hot_calls():
    ticks = iter(range(0, 10_000, 10))
    tracer = Tracer(hot={"leaf", "mid"}, clock=lambda: next(ticks))

    leaf = tracer.wrap("leaf", lambda: None)

    def mid_fn():
        leaf()
        leaf()

    mid = tracer.wrap("mid", mid_fn)

    def top_fn():
        mid()
        leaf()

    top = tracer.wrap("top", top_fn)
    top()
    calls, self_ns = tracer.totals()
    # clock reads: top 0, mid 10, leaf 20/30, leaf 40/50, mid 60, leaf 70/80, top 90
    assert calls == {"top": 1, "mid": 1, "leaf": 3}
    assert self_ns["leaf"] == 30
    assert self_ns["mid"] == 50 - 20
    assert self_ns["top"] == 90 - 50 - 10
    assert sum(self_ns.values()) == 90
    (span,) = tracer.spans
    assert span.hot_calls == {"mid": 1, "leaf": 3}
    assert span.cover == 60


def test_tracer_records_errors_and_parents():
    tracer = Tracer(hot=set())

    def failing():
        raise ValueError("boom")

    inner = tracer.wrap("inner", failing)
    outer = tracer.wrap("outer", lambda: inner())
    with pytest.raises(ValueError):
        outer()
    outer_span, inner_span = tracer.spans
    assert inner_span.parent == 0 and outer_span.parent == -1
    assert inner_span.error == outer_span.error == "ValueError"
    assert tracer.errors["inner", "ValueError"] == 1


# -- metric sets -------------------------------------------------------------

@pytest.mark.parametrize("name", ["sweep", "quotes", "tables"])
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_run_emits_every_metric(name, trace):
    out = run.run_workload(tiny(name), seconds=0.0, trace=trace, setup_s=0.25)
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert out["correct"] is True
    assert out["attempted"] >= 1
    assert {k: v["unit"] for k, v in out["metrics"].items()} == {m["name"]: m["unit"] for m in spec}
    assert all(isinstance(v["value"], (int, float)) for v in out["metrics"].values())


def test_tables_run_is_a_fixed_count_of_commands():
    first, second = (run.run_workload(tiny("tables"), seconds=0.3, trace=False, setup_s=0.0)
                     for _ in range(2))
    assert first["attempted"] == second["attempted"] == 6
    assert first["failed"] == second["failed"]


def test_traced_sweep_counts_the_solver_work():
    out = run.run_workload(tiny("sweep"), seconds=0.0, trace=True, setup_s=0.0)["metrics"]
    assert out["kernels.lam_at_per_solve"]["value"] >= 50.0
    assert out["core.spot_rate_per_step"]["value"] == pytest.approx(2.0, abs=0.03)
    assert out["simulate.sim_step.calls"]["value"] == 3 * 40
    assert out["schedules.check_convexity.calls"]["value"] == 0


def test_instrumentation_is_removed_afterwards():
    import ammix
    from ammix import _kernels, exchange, parametrize

    before = (ammix.quote, exchange.quote, parametrize.state_for_x, _kernels.lam_at)
    with layers.Instrumented():
        assert exchange.quote is not before[1]
        assert _kernels.pure.lam_at is not before[3]
    assert (ammix.quote, exchange.quote, parametrize.state_for_x, _kernels.lam_at) == before


# -- compare -----------------------------------------------------------------

def _result_lines(backend: str, value: float) -> str:
    env = {"env": {"backend": backend, "workload": "quotes", "trace": 0}}
    res = {"correct": True, "attempted": 1, "failed": 0,
           "metrics": {"ops_per_s": {"value": value, "unit": "1/s"}}}
    return json.dumps(env) + "\n" + json.dumps(res) + "\n"


def test_compare_refuses_mixed_backends(tmp_path):
    base, new = tmp_path / "base.jsonl", tmp_path / "new.jsonl"
    base.write_text(_result_lines("pure", 100.0))
    new.write_text(_result_lines("cython", 200.0))
    done = subprocess.run([sys.executable, str(BENCH / "compare.py"), str(base), str(new)],
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 2
    assert "backend" in done.stderr
    new.write_text(_result_lines("pure", 200.0))
    done = subprocess.run([sys.executable, str(BENCH / "compare.py"), str(base), str(new)],
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert "ops_per_s" in done.stdout
