"""The committed BENCH_<change>.json files stay readable by perfbench/compare.py.

Each file is a JSON array with one record per line: a ``bench`` record
describing the measurement, then the ``env`` and result lines of every
``perfbench/run.py`` run, each tagged with its ``side`` (``parent`` or
``change``).  compare.py skips lines that are not JSON objects, so the
lines of one side, fed to it as one file, are a set of runs it reads.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH_FILES = sorted(ROOT.glob("BENCH_*.json"))


@pytest.mark.parametrize("path", BENCH_FILES, ids=[p.name for p in BENCH_FILES])
def test_bench_file_is_read_by_compare(path, tmp_path):
    records = json.loads(path.read_text())
    assert "bench" in records[0]
    sides = {}
    for line in path.read_text().splitlines():
        if line.startswith("{") and '"side"' in line:
            sides.setdefault(json.loads(line)["side"], []).append(line)
    assert sorted(sides) == ["change", "parent"]
    files = []
    for side in ("parent", "change"):
        files.append(tmp_path / f"{side}.jsonl")
        files[-1].write_text("\n".join(sides[side]) + "\n")
    done = subprocess.run([sys.executable, str(ROOT / "perfbench" / "compare.py"), *map(str, files)],
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert "ops_per_s" in done.stdout
