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


def test_sites_on_a_line_range_are_the_whole_listing_on_those_lines():
    # an expression across lines 2-4 and a compare on line 5: a range that
    # cuts the expression keeps only its sites on the range's lines
    source = "def f(x, y):\n    z = (x * 2.0\n         + y\n         - 1)\n    return z < 3\n"
    whole = list(mutants.sites(source))
    assert len(whole) == 7
    for lo, hi in [(1, 5), (3, 3), (3, 5), (4, 4), (5, 5), (6, 9)]:
        assert list(mutants.sites(source, lo, hi)) == [m for m in whole if lo <= m[0] <= hi]
