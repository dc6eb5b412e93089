"""One-site mutation pass: run a test suite against every mutant of some modules.

    python tools/mutants.py run --tree CHECKOUT --out KILLERS.jsonl \\
        src/ammix/exchange.py src/ammix/schedules.py:195-203 [-- PYTEST_ARGS...]
    python tools/mutants.py report KILLERS.jsonl

Each mutant changes one site of one module: an arithmetic operator swapped
(``+``/``-``, ``*``/``/``, ``**`` to ``*``, ``//`` to ``/``, augmented
assignments too), a comparison moved across its boundary (``<``/``<=``,
``>``/``>=``, ``==``/``!=``), an ``and``/``or`` swapped, or a numeric constant
moved (a non-zero float times 1 + 1e-6, an integer or 0.0 plus 1).  Sites
inside f-strings count.  The edited text must parse to the mutated tree;
where it would regroup (``-x**2`` to ``-x*2``) the site is parenthesised.
``MODULE:A-B`` keeps the sites on lines A to B.

``run`` copies CHECKOUT (without ``.git``) into ``JOBS`` work directories,
runs the suite once unmutated, and then once per mutant, ``JOBS`` at a
time, with ``PYTHONDONTWRITEBYTECODE=1``, so that no stale bytecode is
run.  The default suite is the whole of pytest's collection without
``-x``.  A test is a mutant's killer when it passed unmutated and does not
pass against the mutant: it fails, errors, or is not collected (a
collection error, or a parametrize id built from a mutated constant).
With ``-x`` in the pytest arguments only the failures are recorded.  A run
past ``TIMEOUT`` seconds has its process group killed and counts as a
kill.  Each mutant's record is one JSON line appended to ``--out``; a rerun
skips the records already there.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import queue
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time
import xml.etree.ElementTree as ET
from collections import Counter, defaultdict
from concurrent.futures import ThreadPoolExecutor
from math import inf

_SWAPS = {
    ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Mult: ast.Div, ast.Div: ast.Mult,
    ast.Pow: ast.Mult, ast.FloorDiv: ast.Div,
    ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
    ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.And: ast.Or, ast.Or: ast.And,
}
_SYMBOLS = {
    ast.Add: "+", ast.Sub: "-", ast.Mult: "*", ast.Div: "/", ast.Pow: "**",
    ast.FloorDiv: "//", ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">=",
    ast.Eq: "==", ast.NotEq: "!=", ast.And: "and", ast.Or: "or",
}
TESTS = ["-q", "--tb=no", "-rfE", "-p", "no:cacheprovider", "--continue-on-collection-errors"]
TIMEOUT = 300.0
JOBS = 2


def _end(node):
    return node.end_lineno, node.end_col_offset


def _start(node):
    return node.lineno, node.col_offset


def _gaps(node):
    """(i, operator, gaps) for each operator site of node: i is the index
    of a Compare's op (None elsewhere), and each gap is the span between
    two operands that holds the operator, with the text that follows it."""
    if isinstance(node, ast.BinOp) and type(node.op) in _SWAPS:
        yield None, node.op, [(_end(node.left), _start(node.right), "")]
    elif isinstance(node, ast.AugAssign) and type(node.op) in _SWAPS:
        yield None, node.op, [(_end(node.target), _start(node.value), "=")]
    elif isinstance(node, ast.BoolOp):
        yield None, node.op, [(_end(a), _start(b), "") for a, b in zip(node.values, node.values[1:])]
    elif isinstance(node, ast.Compare):
        for i, op in enumerate(node.ops):
            if type(op) in _SWAPS:
                left = node.left if i == 0 else node.comparators[i - 1]
                yield i, op, [(_end(left), _start(node.comparators[i]), "")]


def _moved(value):
    if isinstance(value, float) and value != 0.0:
        return value * (1.0 + 1e-6)
    return value + 1


def _put(holder, key, value):
    """Set holder[key] (a Compare's ops) or holder.key (a node) to value;
    return what was there."""
    if isinstance(holder, list):
        old, holder[key] = holder[key], value
        return old
    old = getattr(holder, key)
    setattr(holder, key, value)
    return old


def sites(source: str, lo: int = 1, hi: float = inf):
    """Yield (line, col, before, after, mutated source) for every site of
    source on lines lo to hi; col is the operand's end before an operator,
    or a constant's start (0-based).  Nodes wholly outside the lines are
    skipped, and each mutant's tree is the parsed tree, edited in place and
    restored."""
    data = source.encode()
    starts = [0]
    for line in data.splitlines(keepends=True):
        starts.append(starts[-1] + len(line))

    def offset(pos):
        return starts[pos[0] - 1] + pos[1]

    tree = ast.parse(source)
    for node in ast.walk(tree):
        if not hasattr(node, "lineno") or node.end_lineno < lo or node.lineno > hi:
            continue
        edits = []  # (line, col, before, after, [(start, end, replacement)], holder, key, new)
        if isinstance(node, ast.Constant) and type(node.value) in (int, float):
            new = _moved(node.value)
            span = (offset(_start(node)), offset(_end(node)), repr(new).encode())
            edits.append((*_start(node), repr(node.value), repr(new), [span], node, "value", new))
        for i, op, gaps in _gaps(node):
            swap = _SWAPS[type(op)]
            before, after = _SYMBOLS[type(op)], _SYMBOLS[swap]
            spans = []
            for left, right, suffix in gaps:
                at = data.find((before + suffix).encode(), offset(left), offset(right))
                spans.append((at, at + len(before), after.encode()))
            holder, key = (node, "op") if i is None else (node.ops, i)
            edits.append((*gaps[0][0], before, after, spans, holder, key, swap()))
        wrap = [(offset(_start(node)), offset(_start(node)), b"("),
                (offset(_end(node)), offset(_end(node)), b")")] if edits else []
        for line, col, before, after, spans, holder, key, new in edits:
            if not lo <= line <= hi:
                continue
            old = _put(holder, key, new)
            want = ast.dump(tree)
            _put(holder, key, old)
            for extra in ([], wrap):
                text = data
                for a, b, rep in sorted(spans + extra, key=lambda e: e[:2], reverse=True):
                    text = text[:a] + rep + text[b:]
                try:
                    if min(a for a, _, _ in spans) >= 0 and ast.dump(ast.parse(text)) == want:
                        yield line, col, before, after, text.decode()
                        break
                except SyntaxError:
                    pass
            else:
                print(f"skipped: no text for {line}:{col} {before} -> {after}", file=sys.stderr)


def _mutants(tree, specs):
    for spec in specs:
        module, _, lines = spec.partition(":")
        lo, _, hi = lines.partition("-")
        bounds = (int(lo), int(hi or lo)) if lines else ()
        with open(os.path.join(tree, module), encoding="utf-8") as fh:
            source = fh.read()
        for line, col, before, after, text in sorted(sites(source, *bounds), key=lambda m: m[:2]):
            yield {"module": module, "line": line, "col": col, "from": before, "to": after}, text


def _outcomes(xml_path):
    """{test id: passed} from a JUnit XML report, ids as classname::name."""
    outcomes = {}
    for case in ET.parse(xml_path).getroot().iter("testcase"):
        test = f"{case.get('classname')}::{case.get('name')}" if case.get("classname") else case.get("name")
        bad = any(child.tag in ("failure", "error", "skipped") for child in case)
        outcomes[test] = outcomes.get(test, True) and not bad
    return outcomes


def _run_suite(workdir, pytest_args):
    """(seconds, timed out, return code, {test id: passed} or None)."""
    xml_path = os.path.join(workdir, ".mutants-junit.xml")
    if os.path.exists(xml_path):
        os.remove(xml_path)
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    started = time.monotonic()
    proc = subprocess.Popen([sys.executable, "-m", "pytest", *pytest_args, f"--junitxml={xml_path}"],
                            cwd=workdir, env=env, stdout=subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL, start_new_session=True)
    try:
        code = proc.wait(timeout=TIMEOUT)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        return time.monotonic() - started, True, None, None
    seconds = time.monotonic() - started
    try:
        return seconds, False, code, _outcomes(xml_path)
    except (OSError, ET.ParseError):
        return seconds, False, code, None


def _verdict(baseline, pytest_args, timed_out, code, outcomes):
    if timed_out:
        return "timeout", []
    outcomes = outcomes or {}
    killers = {t for t, ok in outcomes.items() if not ok}
    if not {"-x", "--exitfirst"} & set(pytest_args):
        killers |= {t for t in baseline if not outcomes.get(t, False)}
    if code not in (0, 1) and not killers:
        killers.add(f"<exit {code}>")
    return ("killed" if killers else "survived"), sorted(killers)


def run(args):
    pytest_args = args.pytest_args or TESTS
    todo = list(_mutants(args.tree, args.modules))
    done = set()
    if os.path.exists(args.out):
        with open(args.out, encoding="utf-8") as fh:
            done = {tuple(json.loads(line)[k] for k in ("module", "line", "col", "from", "to")) for line in fh}
    todo = [(key, text) for key, text in todo if tuple(key.values()) not in done]
    print(f"{len(todo)} mutants to run ({len(done)} already recorded)", file=sys.stderr)
    ignore = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache")
    root = tempfile.mkdtemp(prefix="mutants-", dir=args.work)
    workers = queue.Queue()
    try:
        for i in range(JOBS):
            dest = os.path.join(root, str(i))
            shutil.copytree(args.tree, dest, ignore=ignore)
            workers.put(dest)
        seconds, timed_out, code, baseline = _run_suite(os.path.join(root, "0"), pytest_args)
        if timed_out or not baseline or not all(baseline.values()):
            sys.exit(f"the unmutated suite does not pass (exit {code})")
        print(f"baseline: {len(baseline)} tests in {seconds:.1f} s", file=sys.stderr)
        lock = threading.Lock()

        def one(item):
            key, text = item
            workdir = workers.get()
            path = os.path.join(workdir, key["module"])
            with open(path, encoding="utf-8") as fh:
                original = fh.read()
            try:
                with open(path, "w", encoding="utf-8") as fh:
                    fh.write(text)
                seconds, timed_out, code, outcomes = _run_suite(workdir, pytest_args)
            finally:
                with open(path, "w", encoding="utf-8") as fh:
                    fh.write(original)
                workers.put(workdir)
            status, killers = _verdict(baseline, pytest_args, timed_out, code, outcomes)
            record = dict(key, status=status, killers=killers, seconds=round(seconds, 2))
            with lock, open(args.out, "a", encoding="utf-8") as fh:
                fh.write(json.dumps(record) + "\n")
            print(f"{key['module']}:{key['line']}:{key['col']} {key['from']} -> {key['to']}: "
                  f"{status} ({len(killers)}, {seconds:.1f} s)", file=sys.stderr)

        with ThreadPoolExecutor(JOBS) as pool:
            list(pool.map(one, todo))
    finally:
        shutil.rmtree(root, ignore_errors=True)


def report(args):
    with open(args.records, encoding="utf-8") as fh:
        records = [json.loads(line) for line in fh]
    totals = defaultdict(Counter)
    for r in records:
        totals[r["module"]]["mutants"] += 1
        totals[r["module"]][r["status"]] += 1
    print("| module | mutants | killed | timed out | survived |\n|---|---|---|---|---|")
    for module, c in totals.items():
        print(f"| `{module}` | {c['mutants']} | {c['killed']} | {c['timeout']} | {c['survived']} |")
    for r in records:
        if r["status"] != "killed":
            print(f"{r['status']}: {r['module']}:{r['line']}:{r['col']} `{r['from']}` -> `{r['to']}`")
    kills, unique = Counter(), Counter()
    for r in records:
        kills.update(r["killers"])
        if len(r["killers"]) == 1:
            unique.update(r["killers"])
    print("unique kills, kills, test")
    for test, n in sorted(kills.items(), key=lambda kv: (unique[kv[0]], kv[1])):
        print(f"{unique[test]:4d} {n:5d} {test}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("run", help="run the suite against each mutant")
    p.add_argument("modules", nargs="+", help="module paths in the tree, optionally MODULE:A-B")
    p.add_argument("--tree", required=True, help="checkout to copy and mutate")
    p.add_argument("--out", required=True, help="JSON-lines file of per-mutant records")
    p.add_argument("--work", default=None, help="directory for the work copies")
    p.set_defaults(func=run)
    p = sub.add_parser("report", help="totals, survivors and each test's unique and total kills")
    p.add_argument("records")
    p.set_defaults(func=report)
    argv = sys.argv[1:] if argv is None else list(argv)
    extra = []
    if "--" in argv:
        argv, extra = argv[:argv.index("--")], argv[argv.index("--") + 1:]
    args = parser.parse_args(argv)
    args.pytest_args = extra
    args.func(args)


if __name__ == "__main__":
    main()
