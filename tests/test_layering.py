"""Which private names one shiftlab module imports from another.

A name with a leading underscore belongs to its module.  The few imported
across modules are pinned here, so a new reach-in is a deliberate change
to this list rather than a quiet one.
"""

import ast
from pathlib import Path

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
