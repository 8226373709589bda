#!/usr/bin/env python3
"""List the source lines of shiftlab that no shipped document reaches.

In one process under sys.settrace, validates and runs the demo document
and the documents perfbench/workloads.py generates for every workload at
seeds 1, 2 and 3, with outputs in a temporary directory, then runs both
example scripts.  Prints, for each module of src/shiftlab, the statement
lines the compiler gives bytecode that none of them reached.

A development aid, stdlib only; nothing in src or the tests imports it.
Run it from anywhere: python scripts/traffic_lines.py
"""

import ast
import contextlib
import io
import runpy
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "shiftlab"
SCRIPTS = ("complexity_surface", "distortion_survey")
SEEDS = (1, 2, 3)


def _tracer(reached: dict[str, set[int]]):
    """A sys.settrace hook recording into reached the lines run in PACKAGE."""

    def local(frame, event, arg):
        if event == "line":
            reached[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def call(frame, event, arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(str(PACKAGE)):
            return None
        reached.setdefault(filename, set()).add(frame.f_lineno)
        return local

    return call


def _code_lines(code) -> set[int]:
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= _code_lines(const)
    return lines


def _statement_lines(path: Path, source: str) -> set[int]:
    tree = ast.parse(source)
    starts = {node.lineno for node in ast.walk(tree) if isinstance(node, ast.stmt)}
    return starts & _code_lines(compile(source, str(path), "exec"))


def _documents(tmp: Path):
    """The demo, read in place for its relative rule paths, and the
    generated workload documents, written to tmp."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    from workloads import WORKLOADS, dumps, generate

    yield ROOT / "scripts" / "demo_config.json"
    for workload in WORKLOADS:
        for seed in SEEDS:
            doc = tmp / f"{workload}-{seed}.json"
            doc.write_text(dumps(generate(workload, seed)[0]))
            yield doc


def _exercise(tmp: Path):
    from shiftlab.cli import main

    for doc in _documents(tmp):
        main(["validate", str(doc)])
        main(["run", str(doc), "--out-dir", str(tmp / doc.stem)])
    for script in SCRIPTS:
        path = ROOT / "scripts" / f"{script}.py"
        sys.argv = [str(path)]
        runpy.run_path(str(path), run_name="__main__")


def main() -> None:
    sys.path.insert(0, str(ROOT / "src"))
    sink, reached = io.StringIO(), {}
    sys.settrace(_tracer(reached))  # before shiftlab is imported, so imports count
    try:
        with (
            tempfile.TemporaryDirectory() as tmp,
            contextlib.redirect_stdout(sink),
            contextlib.redirect_stderr(sink),
        ):
            _exercise(Path(tmp))
    finally:
        sys.settrace(None)
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text()
        missed = sorted(_statement_lines(path, source) - reached.get(str(path), set()))
        print(f"{path.name}: {len(missed)} unreached")
        text = source.splitlines()
        for line in missed:
            print(f"  {line:5d}  {text[line - 1].strip()}")


if __name__ == "__main__":
    main()
