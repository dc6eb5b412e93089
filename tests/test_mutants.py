import importlib.util
import json
from pathlib import Path

_spec = importlib.util.spec_from_file_location(
    "mutants", Path(__file__).resolve().parents[1] / "tools" / "mutants.py")
mutants = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(mutants)


def test_mutation_runner_records_the_killer_of_a_two_line_module(tmp_path):
    tree = tmp_path / "tree"
    tree.mkdir()
    (tree / "mod.py").write_text("def add(x, y):\n    return x + y\n")
    (tree / "test_mod.py").write_text(
        "from mod import add\n\n\ndef test_add():\n    assert add(2, 1) == 3\n\n\n"
        "def test_type():\n    assert isinstance(add(2, 1), int)\n")
    out = tmp_path / "killers.jsonl"
    mutants.main(["run", "--tree", str(tree), "--out", str(out), "--work", str(tmp_path),
                  "mod.py", "--", "-q", "-p", "no:cacheprovider"])
    [record] = [json.loads(line) for line in out.read_text().splitlines()]
    assert record["module"] == "mod.py" and (record["line"], record["col"]) == (2, 12)
    assert (record["from"], record["to"], record["status"]) == ("+", "-", "killed")
    assert record["killers"] == ["test_mod::test_add"]
    assert (tree / "mod.py").read_text() == "def add(x, y):\n    return x + y\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["killers.jsonl", "tree"]
