"""Which names and modules one shiftlab module loads from another.

A name with a leading underscore belongs to its module.  The few imported
across modules are pinned here, so a new reach-in is a deliberate change
to this list rather than a quiet one.

The compute layers load on first use: a `shiftlab` process loads only the
layers its document's runs need, and only the stdlib modules they use.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import shiftlab

PACKAGE = Path(shiftlab.__file__).resolve().parent

ALLOWED = {
    ("spacetime", "blockcode", "_Images"),
    ("corpus", "config", "_is_int"),
    ("corpus", "config", "_require_object"),
}


def private_imports() -> set:
    """(importing module, imported module, name) for every underscore name
    a module of the package imports from another one of its modules."""
    found = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(node, ast.ImportFrom) or node.module is None:
                continue
            if node.level == 1:
                source = node.module
            elif node.module.startswith("shiftlab."):
                source = node.module.removeprefix("shiftlab.")
            else:
                continue
            found.update(
                (path.stem, source, alias.name)
                for alias in node.names
                if alias.name.startswith("_")
            )
    return found


def test_private_names_cross_modules_only_where_pinned():
    assert private_imports() == ALLOWED


COMPUTE_LAYERS = {"blockcode", "shiftlang", "spacetime", "grouplab"}

GROUPS_ONLY = [
    {"name": "d", "operation": "distortion",
     "params": {"group": "bs-2", "element": "a", "depth": 8}},
    {"name": "g", "operation": "ball_growth", "params": {"group": "z2", "radius": 4}},
]
SHIFTS_ONLY = [
    {"name": "c", "operation": "complexity", "params": {"shift": "fibonacci", "depth": 8}},
    {"name": "s", "operation": "special_words",
     "params": {"shift": "golden-mean", "length": 4}},
]
CODES_ONLY = [
    {"name": "r", "operation": "rectangle_complexity",
     "params": {"shift": "full-2", "code": "full-2/flip", "cols": 3, "rows": 2}},
]
DOCUMENTS = {"groups.json": GROUPS_ONLY, "shifts.json": SHIFTS_ONLY, "codes.json": CODES_ONLY}
COMMAND_LINES = [
    (command, name) for name in DOCUMENTS for command in ("validate", "run")
] + [("list-builtins",)]


def loaded_modules(tmp_path, *argv) -> set:
    """The modules a fresh process has loaded once `shiftlab argv`
    returns; the command must succeed."""
    probe = (
        "import sys; from shiftlab.cli import main; status = main(sys.argv[1:]); "
        "print(' '.join(sorted(sys.modules))); sys.exit(status)"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe, *argv],
        cwd=tmp_path, env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)},
        capture_output=True, text=True, timeout=60,
    )
    assert result.returncode == 0, result.stderr
    return set(result.stdout.splitlines()[-1].split())


def loaded_layers(tmp_path, *argv) -> set:
    """The compute layers among loaded_modules(tmp_path, *argv)."""
    loaded = loaded_modules(tmp_path, *argv)
    return {name for name in COMPUTE_LAYERS if f"shiftlab.{name}" in loaded}


@pytest.mark.parametrize("command", ["validate", "run"])
@pytest.mark.parametrize("runs, needed, unneeded", [
    (GROUPS_ONLY, {"grouplab"}, {"blockcode", "shiftlang", "spacetime"}),
    (SHIFTS_ONLY, {"shiftlang"}, {"grouplab", "spacetime"}),
], ids=["groups-only", "shifts-only"])
def test_documents_load_only_the_layers_they_use(tmp_path, command, runs, needed, unneeded):
    (tmp_path / "doc.json").write_text(json.dumps({"runs": runs, "out_dir": "out"}))
    loaded = loaded_layers(tmp_path, command, "doc.json")
    assert needed <= loaded and not loaded & unneeded


def test_list_builtins_loads_no_layer(tmp_path):
    assert loaded_layers(tmp_path, "list-builtins") == set()


@pytest.mark.parametrize("command", ["validate", "run"])
def test_complexity_documents_load_no_fractions(tmp_path, command):
    # only range profiles, fabricated profiles and BS(1,n) translations
    # need exact fractions
    (tmp_path / "doc.json").write_text(json.dumps({"runs": SHIFTS_ONLY[:1], "out_dir": "out"}))
    assert "fractions" not in loaded_modules(tmp_path, command, "doc.json")


@pytest.mark.parametrize("argv", [
    ("validate", "groups.json"), ("run", "groups.json"),
    ("validate", "shifts.json"), ("run", "shifts.json"), ("list-builtins",),
])
def test_no_command_loads_dataclasses_or_inspect(tmp_path, argv):
    # records are errors.record classes; dataclasses would load inspect
    # and generate code for every class at start-up
    for name, runs in (("groups.json", GROUPS_ONLY), ("shifts.json", SHIFTS_ONLY)):
        (tmp_path / name).write_text(json.dumps({"runs": runs, "out_dir": "out"}))
    assert not {"dataclasses", "inspect"} & loaded_modules(tmp_path, *argv)


def write_documents(tmp_path):
    for name, runs in DOCUMENTS.items():
        (tmp_path / name).write_text(json.dumps({"runs": runs, "out_dir": "out"}))


@pytest.mark.parametrize("argv", COMMAND_LINES, ids=" ".join)
def test_no_command_loads_argparse(tmp_path, argv):
    # cli reads its own command line; argparse loads gettext, and locale
    # once it parses
    write_documents(tmp_path)
    assert not {"argparse", "gettext", "locale"} & loaded_modules(tmp_path, *argv)


@pytest.mark.parametrize("name", sorted(DOCUMENTS))
def test_validate_loads_no_csv(tmp_path, name):
    write_documents(tmp_path)
    assert "csv" not in loaded_modules(tmp_path, "validate", name)


@pytest.mark.parametrize("command", ["validate", "run"])
def test_codes_only_documents_load_no_fractions(tmp_path, command):
    # blockcode builds a Fraction only for range profiles
    write_documents(tmp_path)
    assert not {"fractions", "decimal"} & loaded_modules(tmp_path, command, "codes.json")


@pytest.mark.parametrize("command, unloaded", [
    ("validate", {"shiftlab.trends", "fractions", "decimal", "numbers"}),
    ("run", {"fractions", "decimal"}),
])
def test_groups_only_documents_load_no_fractions(tmp_path, command, unloaded):
    # grouplab loads trends on its first fit, which validate never makes,
    # and fractions on its first non-integral BS(1,n) translation; the
    # Horner words of a in BS(1,2) fold on ints alone
    write_documents(tmp_path)
    assert not unloaded & loaded_modules(tmp_path, command, "groups.json")


# perfbench/tracer.py's LAYERS
TRACED_LAYERS = ("shiftlang", "blockcode", "spacetime", "grouplab",
                 "trends", "audit", "config", "corpus")


def test_the_tracer_finds_every_layer_loaded():
    # the tracer's install() imports the five modules of the probe, then
    # reads every layer from sys.modules: cli must load audit, config and
    # corpus, and blockcode must load trends, at import time, or
    # `perfbench/run.py --trace 1` breaks. A benchmark change that makes
    # the tracer import every layer itself may delete this test.
    probe = (
        "import sys; from shiftlab import blockcode, cli, grouplab, shiftlang, spacetime; "
        "print(' '.join(sorted(sys.modules)))"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe],
        env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)},
        capture_output=True, text=True, timeout=60, check=True,
    )
    loaded = set(result.stdout.split())
    assert {f"shiftlab.{name}" for name in TRACED_LAYERS} <= loaded
