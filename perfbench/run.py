"""ammix benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload {sweep,quotes,tables} --seed N \
        --seconds S --trace {0,1}

Runs from the root of a source checkout and imports ammix from ``src/``.
With ``--trace 0`` it times the workload for S seconds of op time (for
``tables``, a fixed number of commands sized to about that) and prints
the end-to-end metrics; with ``--trace 1`` it also runs one unit of
the workload with every ammix layer wrapped, and prints the per-layer
metrics and the tracing overhead.  Times are reference-calibrated (see
``calibrate.py``).  The line before the result records the environment.
The benchmark pins no CPU and leaves the page cache alone.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from array import array
from pathlib import Path

from calibrate import REF_NOMINAL_S, Calibration, reference_s

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_PROBES = 7  # fresh interpreters per run; the median is reported
LATENCY_SAMPLES = 50_000
WALL_GUARD = 5  # a run's loop ends after this many times --seconds of wall time
WORKLOAD_NAMES = ("sweep", "quotes", "tables")


def parse_args(argv: list[str]) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--probe", action="store_true",
                   help="print the set-up time of one fresh interpreter and exit")
    return p.parse_args(argv)


def require_sources() -> None:
    if not (SRC / "ammix" / "__init__.py").is_file():
        sys.exit(f"error: no ammix sources at {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))


def probe(workload: str, seed: int) -> float:
    """``import ammix`` plus building the workload's curves, in this interpreter."""
    refs = [reference_s() for _ in range(3)]
    t0 = time.perf_counter()
    import ammix  # noqa: F401
    from workloads import WORKLOADS
    WORKLOADS[workload](seed)
    elapsed = time.perf_counter() - t0
    refs += [reference_s() for _ in range(3)]
    return elapsed * REF_NOMINAL_S / statistics.median(refs)


def setup_seconds(workload: str, seed: int) -> float:
    """Median probe time over fresh interpreters, after one warm-up probe."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--probe",
           "--workload", workload, "--seed", str(seed), "--seconds", "0"]
    samples = []
    for i in range(SETUP_PROBES + 1):
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
        if i:
            samples.append(float(done.stdout.split()[-1]))
    return statistics.median(samples)


def percentile(values: list, q: int) -> float:
    if len(values) == 1:
        return float(values[0])
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


class Totals:
    """Counts and calibrated times of the units run so far.

    Latencies are kept as a uniform sample of at most ``LATENCY_SAMPLES``,
    so that memory, and with it ``peak_rss_mb``, does not grow with speed.
    """

    def __init__(self):
        self.ops = self.failed = self.bad = self.stdout_bytes = 0
        self.busy_ns = self.wall_ns = self.raw_busy_ns = 0
        self.latencies_ns = array("d")
        self._seen = 0
        self._sampler = random.Random(0)

    def add(self, res, bad: int, wall_ns: int, factor: float) -> None:
        """Count one unit; ``factor`` converts its times to calibrated time."""
        self.ops += res.ops
        self.failed += res.failed + bad
        self.bad += bad
        self.stdout_bytes += res.stdout_bytes
        self.busy_ns += res.busy_ns * factor
        self.raw_busy_ns += res.busy_ns
        self.wall_ns += wall_ns * factor
        for ns in res.latencies_ns:
            self._seen += 1
            if len(self.latencies_ns) < LATENCY_SAMPLES:
                self.latencies_ns.append(ns * factor)
            else:
                slot = self._sampler.randrange(self._seen)
                if slot < LATENCY_SAMPLES:
                    self.latencies_ns[slot] = ns * factor


def measure(wl, seconds: float) -> Totals:
    """Untraced closed loop over units until ``seconds`` of op time, or over
    ``seconds * wl.units_per_s`` units when the workload fixes its count.

    The first ``wl.trace_units`` units are kept for the traced run, so no
    unit is timed twice.
    """
    totals = Totals()
    index = wl.trace_units
    units = None if wl.units_per_s is None else max(1, round(seconds * wl.units_per_s))
    start = time.perf_counter_ns()
    cal = Calibration()
    # at least one unit; the wall-clock guard ends a run whose ops fail too
    # fast to add up to the op time asked for, or a fixed count of units on
    # a machine much slower than the one it was sized on
    while True:
        unit = wl.make_unit(index)
        t0 = time.perf_counter_ns()
        res = wl.run_unit(unit)
        wall = time.perf_counter_ns() - t0
        totals.add(res, wl.check(unit, res), wall, cal.factor())
        index += 1
        if units is None:
            done = totals.raw_busy_ns >= seconds * 1e9
        else:
            done = index - wl.trace_units >= units
        if done or time.perf_counter_ns() - start >= WALL_GUARD * seconds * 1e9:
            return totals


def end_to_end(totals: Totals, setup_s: float) -> dict:
    lat_ms = [ns / 1e6 for ns in totals.latencies_ns] or [0.0]
    return {
        "ops_per_s": (totals.ops - totals.failed) / (totals.busy_ns / 1e9) if totals.busy_ns else 0.0,
        "latency_p50_ms": percentile(lat_ms, 50),
        "latency_p90_ms": percentile(lat_ms, 90),
        "latency_p99_ms": percentile(lat_ms, 99),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "success_ratio": (totals.ops - totals.failed) / totals.ops if totals.ops else 0.0,
    }


def traced(wl, untraced: Totals, names: list[str]) -> tuple[dict, Totals]:
    import ammix.analysis
    from layers import Instrumented, layer_metrics

    cache = getattr(ammix.analysis, "_certified_convex", None)
    before = cache.cache_info() if cache is not None else None
    done = []
    cal = Calibration()
    with Instrumented() as tracer:
        for index in range(wl.trace_units):
            unit = wl.make_unit(index)
            t0 = time.perf_counter_ns()
            res = wl.run_unit(unit)
            wall = time.perf_counter_ns() - t0
            done.append((unit, res, wall, cal.factor()))
    after = cache.cache_info() if cache is not None else None
    totals = Totals()
    for unit, res, wall, factor in done:
        totals.add(res, wl.check(unit, res), wall, factor)
    raw_wall = sum(wall for _, _, wall, _ in done)
    per_op_traced = totals.wall_ns / max(totals.ops, 1)
    per_op_untraced = untraced.wall_ns / max(untraced.ops, 1)
    extra = {
        "cache_hits": after.hits - before.hits if before else 0,
        "cache_misses": after.misses - before.misses if before else 0,
        "stdout_bytes": totals.stdout_bytes,
        "overhead": per_op_traced / per_op_untraced if per_op_untraced else 0.0,
        "ops": totals.ops,
        "time_factor": totals.wall_ns / raw_wall if raw_wall else 1.0,
    }
    return layer_metrics(tracer, extra, names), totals


def run_workload(wl, seconds: float, trace: bool, setup_s: float) -> dict:
    """The result object with the metrics ``BENCHMARK.json`` names:
    end-to-end ones, or per-layer ones when tracing."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer" if trace else "end_to_end"]
    totals = measure(wl, seconds)
    if trace:
        values, traced_totals = traced(wl, totals, [m["name"] for m in spec])
        totals.ops += traced_totals.ops
        totals.failed += traced_totals.failed
        totals.bad += traced_totals.bad
    else:
        values = end_to_end(totals, setup_s)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec}
    return {"correct": totals.bad == 0, "attempted": totals.ops,
            "failed": totals.failed, "metrics": metrics}


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    if ref_file.is_file():
        return ref_file.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return "unknown"


def environment(args: argparse.Namespace) -> dict:
    import ammix
    import numpy
    return {
        "backend": ammix.KERNEL_BACKEND,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": git_commit(),
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "cpu_pinning": "none",
        "page_cache": "untouched",
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    require_sources()
    if args.probe:
        print(probe(args.workload, args.seed))
        return 0
    setup_s = setup_seconds(args.workload, args.seed) if not args.trace else 0.0
    from workloads import WORKLOADS
    out = run_workload(WORKLOADS[args.workload](args.seed), args.seconds, bool(args.trace), setup_s)
    print(json.dumps({"env": environment(args)}))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
