"""Golden snapshot of seeded CLI output.

``tests/golden/cli.json`` lists CLI invocations with the exit code and the
SHA-256 of the stdout each produced when the snapshot was taken.  A change
that alters any of them, on purpose or not, fails here; a deliberate change
is recorded by replacing the hash (the failure message prints the new one)
and saying why in CHANGES.md.
"""

import hashlib
import json
from pathlib import Path

import pytest

from ammix.cli import run_command

GOLDEN = json.loads((Path(__file__).parent / "golden" / "cli.json").read_text())


@pytest.mark.parametrize("case", GOLDEN, ids=[" ".join(c["argv"]) for c in GOLDEN])
def test_cli_output_matches_snapshot(case, capsys):
    code = run_command(case["argv"])
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert (code, digest) == (case["exit"], case["sha256"])
