"""Golden snapshot of seeded CLI output.

``tests/golden/cli.json`` lists CLI invocations with the exit code and the
SHA-256 of the stdout each produced when the snapshot was taken.  A change
that alters any of them, on purpose or not, fails here; a deliberate change
is recorded by replacing the hash (the failure message prints the new one)
and saying why in CHANGES.md.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from ammix.cli import run_command

GOLDEN = json.loads((Path(__file__).parent / "golden" / "cli.json").read_text())


@pytest.mark.parametrize("case", GOLDEN, ids=[" ".join(c["argv"]) for c in GOLDEN])
def test_cli_output_matches_snapshot(case, capsys):
    code = run_command(case["argv"])
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert (code, digest) == (case["exit"], case["sha256"])


def test_snapshot_holds_without_avx512_dispatch():
    """The snapshot, rerun in a child process with numpy's AVX-512 kernels off.

    numpy's AVX-512 exp, log and power round differently from libm on a few
    percent of inputs, so a golden that passes only with them pins the CPU,
    not ammix.  Unknown feature names are ignored, so on a machine without
    AVX-512 this reruns the snapshot unchanged.  The variable is set only on
    the child.
    """
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES="AVX512_SPR AVX512_ICL X86_V4")
    child = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         f"{Path(__file__).resolve()}::test_cli_output_matches_snapshot"],
        cwd=Path(__file__).resolve().parents[1], env=env, capture_output=True, text=True,
        timeout=600,
    )
    assert child.returncode == 0, child.stdout[-4000:] + child.stderr[-4000:]
    assert f"{len(GOLDEN)} passed" in child.stdout
