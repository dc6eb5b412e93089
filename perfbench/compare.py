"""Compare two sets of benchmark results.

    python3 perfbench/compare.py BASE.jsonl NEW.jsonl

Each file holds the standard output of one or more ``run.py`` runs (an
``env`` line followed by a result line).  For every workload and metric it
prints the median and quartiles of each side and the change of the
medians.  It refuses, with exit code 2, to compare results taken on
different kernel backends.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict


def load(path: str) -> list[tuple[dict, dict]]:
    """(env, result) pairs in file order."""
    runs, env = [], None
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line.startswith("{"):
                continue
            obj = json.loads(line)
            if "env" in obj:
                env = obj["env"]
            elif "metrics" in obj:
                if env is None:
                    raise ValueError(f"{path}: result line without an env line before it")
                runs.append((env, obj))
                env = None
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    sides = [load(path) for path in argv]
    backends = {env["backend"] for runs in sides for env, _ in runs}
    if len(backends) != 1:
        print(f"error: results come from different kernel backends {sorted(backends)}; "
              "they are not comparable", file=sys.stderr)
        return 2
    table = defaultdict(lambda: ([], []))
    units = {}
    for side, runs in enumerate(sides):
        for env, result in runs:
            for name, m in result["metrics"].items():
                table[env["workload"], env["trace"], name][side].append(m["value"])
                units[name] = m["unit"]
    print(f"backend {backends.pop()}")
    print("workload  metric                                    unit    base: median [q1, q3]"
          "               new: median [q1, q3]                change")
    for (workload, _, name), (base, new) in sorted(table.items()):
        if not base or not new:
            continue
        b1, b2, b3 = quartiles(base)
        n1, n2, n3 = quartiles(new)
        change = f"{(n2 - b2) / b2:+.1%}" if b2 else "n/a"
        print(f"{workload:9} {name:41} {units[name]:7} {f'{b2:.6g} [{b1:.4g}, {b3:.4g}]':35} "
              f"{f'{n2:.6g} [{n1:.4g}, {n3:.4g}]':35} {change}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
