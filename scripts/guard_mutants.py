#!/usr/bin/env python3
"""Sweep the `if` guards of one shiftlab module with two mutants each.

    python scripts/guard_mutants.py SRC_FILE TEST_FILE...
    python scripts/guard_mutants.py src/shiftlab/audit.py tests/test_audit.py

Every `if` statement of SRC_FILE whose body is not a lone `raise` (a
boundary error, which its own test reaches directly) gives two mutants:

- forced True: the guard's test becomes `True`
- body dropped: the guard's body becomes `pass`

Each mutant is written, one at a time, into a temporary copy of the
repository, and TEST_FILE... run there with -x in one child, under a
timeout of three times the unmutated run plus 10 s.  A mutant that those
tests let through is run again against the whole Tier-1 suite.  Prints one
line per mutant (line, operator, outcome) and ends with the mutants that
Tier-1 lets through; each of those needs a test that kills it, the code
deleted, or a reason why it is equivalent.

A development aid, stdlib only; nothing in src or the tests imports it.
"""

import ast
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COPY_IGNORE = shutil.ignore_patterns(
    ".git", "__pycache__", ".pytest_cache", ".hypothesis", ".benchmarks", ".work"
)
TIER_1 = ("tests",)


def guards(tree: ast.Module) -> list[ast.If]:
    """The `if` statements of tree in source order, lone-raise bodies left out."""
    found = [
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.If)
        and not (len(node.body) == 1 and isinstance(node.body[0], ast.Raise))
    ]
    return sorted(found, key=lambda node: (node.lineno, node.col_offset))


def splice(source: bytes, first: ast.AST, last: ast.AST, text: bytes) -> bytes:
    """source with the span from first's start to last's end replaced by text.

    ast column offsets count UTF-8 bytes, so the splice works on bytes.
    """
    lines = source.splitlines(keepends=True)
    head = b"".join(lines[: first.lineno - 1]) + lines[first.lineno - 1][: first.col_offset]
    tail = lines[last.end_lineno - 1][last.end_col_offset :] + b"".join(lines[last.end_lineno :])
    return head + text + tail


def mutants(source: bytes):
    """(line, operator, mutated source) for every guard of source."""
    for node in guards(ast.parse(source)):
        yield node.lineno, "forced True", splice(source, node.test, node.test, b"True")
        yield node.lineno, "body dropped", splice(source, node.body[0], node.body[-1], b"pass")


def run_tests(copy: Path, tests, timeout: float) -> str:
    """The tests' verdict on the copy; a timeout ends the child's whole
    process group, so no process that a test started outlives it."""
    argv = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests]
    env = {**os.environ, "PYTHONPATH": str(copy / "src")}
    quiet = subprocess.DEVNULL
    with subprocess.Popen(
        argv, cwd=copy, env=env, stdout=quiet, stderr=quiet, start_new_session=True
    ) as child:
        try:
            return "survived" if child.wait(timeout) == 0 else "killed"
        except subprocess.TimeoutExpired:
            os.killpg(child.pid, signal.SIGKILL)
            child.wait()
            return "timeout"


def timed_baseline(copy: Path, tests) -> float:
    """Seconds for tests on the unmutated copy, which must pass."""
    start = time.perf_counter()
    if run_tests(copy, tests, timeout=3600) != "survived":
        sys.exit(f"the unmutated tests fail: {' '.join(tests)}")
    return 3 * (time.perf_counter() - start) + 10


def main(argv) -> int:
    if len(argv) < 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    module, *tests = (str(Path(arg).resolve().relative_to(ROOT)) for arg in argv)
    source = (ROOT / module).read_bytes()
    survivors = []
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=COPY_IGNORE)
        target = copy / module
        timeout = timed_baseline(copy, tests)
        tier_1_timeout = timed_baseline(copy, TIER_1)
        name = Path(module).name
        for line, operator, mutated in mutants(source):
            if mutated == source:
                continue  # a lone `pass` body dropped
            try:
                compile(mutated, module, "exec")
            except SyntaxError:
                print(f"{name}:{line} {operator}: not compilable, skipped", flush=True)
                continue
            target.write_bytes(mutated)
            outcome = run_tests(copy, tests, timeout)
            if outcome == "survived":
                tier_1 = run_tests(copy, TIER_1, tier_1_timeout)
                outcome = f"module tests let it through; Tier-1 {tier_1}"
                if tier_1 == "survived":
                    survivors.append(f"{name}:{line} {operator}")
            print(f"{name}:{line} {operator}: {outcome}", flush=True)
            target.write_bytes(source)
    print(f"Tier-1 survivors: {', '.join(survivors) or 'none'}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
