"""Which ammix functions the traced run wraps, and the per-layer metrics.

The layers are the modules of ``src/ammix``.  ``stableswap`` is left out on
purpose: it holds closed forms that neither the CLI nor the simulation
calls.  Every public function defined in a layer module is wrapped, in
every ``ammix.*`` namespace that binds it (the backend module of
``ammix._kernels`` included, so calls between kernels are counted).

Functions called once per op or less often are recorded as spans; all
others are hot, and their calls are aggregated per enclosing span.
"""

from __future__ import annotations

import inspect
import sys

from tracing import Tracer, instrument, restore

LAYERS = ("_kernels", "parametrize", "core", "schedules", "exchange", "analysis", "simulate", "cli")

SPAN_FUNCTIONS = frozenset({
    "simulate.batch_summary", "simulate.run_sim", "simulate.sim_step",
    "exchange.quote", "exchange.swap",
    "parametrize.state_for_x", "parametrize.state_for_y",
    "analysis.arbitrage_state", "analysis.portfolio_value", "analysis.reduced_value",
    "schedules.check_convexity",
    "cli.run_command", "cli.emit_table", "cli.build_parser",
})


def targets() -> dict:
    """Function object -> traced name (``<layer>.<function>``)."""
    out = {}
    for layer in LAYERS:
        mod = sys.modules["ammix." + layer]
        label = layer.lstrip("_")
        for attr, value in vars(mod).items():
            if attr.startswith("_") or isinstance(value, type) or not callable(value):
                continue
            # kernels may be compiled builtins; elsewhere only functions defined here
            if layer != "_kernels" and not (inspect.isfunction(value) and value.__module__ == mod.__name__):
                continue
            out[value] = f"{label}.{attr}"
    return out


def _observe_step(tracer: Tracer, result) -> None:
    if result[1].extracted is None:
        tracer.counts["simulate.no_trades"] += 1


def _observe_certificate(tracer: Tracer, report) -> None:
    tracer.counts["schedules.grid_points"] += report.grid_size
    tracer.counts["schedules.skipped"] += report.skipped


class Instrumented:
    """Context manager: ammix traced while inside, restored on exit."""

    def __init__(self):
        import ammix.cli  # noqa: F401  (bind every layer module)
        found = targets()
        hot = {name for name in found.values() if name not in SPAN_FUNCTIONS}
        self.tracer = Tracer(hot, observers={
            "simulate.sim_step": _observe_step,
            "schedules.check_convexity": _observe_certificate,
        })
        self._targets = found
        self._undo = []

    def __enter__(self) -> Tracer:
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "ammix" or n.startswith("ammix."))]
        self._undo = instrument(self.tracer, modules, self._targets)
        return self.tracer

    def __exit__(self, *exc) -> None:
        restore(self._undo)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, extra: dict, names: list[str]) -> dict:
    """The named per-layer metrics from a finished trace.

    ``<function>.calls`` and ``<function>.self_s`` work for every traced
    function, and ``<layer>.calls`` and ``<layer>.self_s`` for every layer;
    the other names are computed below.

    ``extra`` carries what the workload measured itself: ``cache_hits``,
    ``cache_misses``, ``stdout_bytes``, ``overhead`` and ``ops``, and the
    ``time_factor`` converting traced times to calibrated time.
    """
    calls, self_ns = tracer.totals()
    to_s = extra["time_factor"] / 1e9
    values = {}
    for layer in LAYERS:
        label = layer.lstrip("_")
        fns = [n for n in calls if n.startswith(label + ".")]
        values[f"{label}.calls"] = sum(calls[n] for n in fns)
        values[f"{label}.self_s"] = sum(self_ns[n] for n in fns) * to_s
    for name in names:
        base, _, stat = name.rpartition(".")
        if name in values:
            continue
        if stat == "calls":
            values[name] = calls[base]
        elif stat == "self_s":
            values[name] = self_ns[base] * to_s
    certificates = calls["schedules.check_convexity"]
    arbitrages = [s for s in tracer.spans if s.name == "analysis.arbitrage_state"]
    step_ids = {i for i, s in enumerate(tracer.spans) if s.name == "simulate.sim_step"}
    lookups = extra.get("cache_hits", 0) + extra.get("cache_misses", 0)
    values.update({
        "kernels.lam_at_per_solve": _ratio(calls["kernels.lam_at"], calls["kernels.solve_s_for_x"]),
        "core.spot_rate_per_step": _ratio(calls["core.spot_rate"], calls["simulate.sim_step"]),
        "schedules.grid_points": _ratio(tracer.counts["schedules.grid_points"], certificates),
        "schedules.skipped": _ratio(tracer.counts["schedules.skipped"], certificates),
        "analysis.rate_evals_per_arbitrage": _ratio(
            sum(s.hot_calls["core.spot_rate"] for s in arbitrages), len(arbitrages)),
        "analysis.certificate_cache.hit_ratio": _ratio(extra.get("cache_hits", 0), lookups),
        "analysis.certificate_cache.lookups": lookups,
        "exchange.errors": sum(n for (name, _), n in tracer.errors.items()
                               if name in ("exchange.quote", "exchange.swap")),
        "simulate.clamps": sum(1 for s in tracer.spans
                               if s.parent in step_ids and s.error == "OutOfRangeError"),
        "simulate.no_trades": tracer.counts["simulate.no_trades"],
        "cli.stdout_bytes": extra.get("stdout_bytes", 0),
        "trace.overhead": extra["overhead"],
        "trace.spans": len(tracer.spans),
        "trace.ops": extra["ops"],
    })
    return {name: values[name] for name in names}
