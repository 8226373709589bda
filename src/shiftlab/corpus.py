"""Built-in corpus: named shifts, codes, and groups available to every
experiment without being defined in the configuration document.

Catalogs hold the built-in entries and a document's, and build each entry
by name on first use, so a bad entry fails only what uses it.
"""

from __future__ import annotations

from pathlib import Path
from typing import Callable, Mapping

from .blockcode import DEFAULT_TABLE_BUDGET, BlockCode
from .config import build_code, build_group, build_shift, code_references
from .grouplab import (
    BS1nModel,
    GeneratingSet,
    GroupModel,
    HeisenbergModel,
    WordExpr,
    base_q_certificate,
    bs_horner_certificate,
)
from .shiftlang import ShiftPresentation

BUILTIN_SHIFT_SPECS = {
    "full-2": {"kind": "full", "alphabet": "01"},
    "golden-mean": {"kind": "sft", "alphabet": "01", "forbidden": ["11"]},
    "fibonacci": {
        "kind": "substitution",
        "alphabet": "01",
        "rules": {"0": "01", "1": "0"},
    },
    "periodic-01": {"kind": "periodic", "seed": "01"},
}

INFINITE_BUILTIN_SHIFTS = ("full-2", "golden-mean", "fibonacci")

# the letter swap preserves exactly the languages that are swap-invariant
FLIP_COMPATIBLE = ("full-2", "periodic-01")

# codes named `<shift>/<code>`: every shift carries the two shift powers,
# and the codes using the letter swap exist only where it is an endomorphism
BUILTIN_CODE_SPECS = {
    f"{shift}/{code}": spec
    for shift in BUILTIN_SHIFT_SPECS
    for code, spec in {
        "shift": {"kind": "shift_power", "domain": shift, "exponent": 1},
        "shift_inverse": {"kind": "shift_power", "domain": shift, "exponent": -1},
        "flip": {"kind": "symbol_map", "domain": shift, "image": {"0": "1", "1": "0"}},
        "shift_flip": {"kind": "compose", "outer": f"{shift}/shift", "inner": f"{shift}/flip"},
    }.items()
    if "flip" not in code or shift in FLIP_COMPATIBLE
}

BUILTIN_GROUP_SPECS = {
    "z1": {"kind": "free_abelian", "rank": 1},
    "z2": {"kind": "free_abelian", "rank": 2},
    "heisenberg": {"kind": "heisenberg"},
    "bs-2": {"kind": "baumslag_solitar", "base": 2},
    "bs-3": {"kind": "baumslag_solitar", "base": 3},
}


class Catalog:
    """Named specs, each built by `build(name, spec)` on first use."""

    def __init__(self, specs: dict, build=None):
        self.specs, self._built = specs, {}
        if build is not None:
            self.build = build

    def __getitem__(self, name):
        if name not in self._built:
            self._built[name] = self.build(name, self.specs[name])
        return self._built[name]

    def __contains__(self, name):
        return name in self.specs

    def __iter__(self):
        return iter(self.specs)

    def items(self):
        return ((name, self[name]) for name in self.specs)


def builtin_shifts(document: Mapping | None = None) -> Catalog:
    """Every built-in shift, then the `document` specs, each built fresh on
    first use."""
    return Catalog({**BUILTIN_SHIFT_SPECS, **(document or {})}, build_shift)


class _CodeCatalog(Catalog):
    """Codes, each built after the earlier codes it references.

    `build` is a method, not a stored closure over the catalog, so no
    reference cycle keeps a catalog, and the word indexes of its shifts,
    alive after its last user drops it.
    """

    def __init__(self, specs, shifts, document, base_dir, table_budget):
        super().__init__(specs)
        self.shifts, self.document = shifts, document
        self.base_dir, self.table_budget = base_dir, table_budget

    def build(self, name: str, spec: dict) -> BlockCode:
        names = list(self.specs)
        earlier = set(names[: names.index(name)])
        needed, pending = set(), list(code_references(spec).values())
        while pending:
            ref = pending.pop()
            if isinstance(ref, str) and ref in earlier and ref not in needed:
                needed.add(ref)
                pending += code_references(self.specs[ref]).values()
        built = {ref: self[ref] for ref in names if ref in needed}
        budget = self.table_budget if name in self.document else DEFAULT_TABLE_BUDGET
        return build_code(name, spec, self.shifts, built, self.base_dir, budget)


def builtin_codes(
    shifts: Mapping[str, ShiftPresentation],
    document: Mapping | None = None,
    base_dir: Path | None = None,
    table_budget: int = DEFAULT_TABLE_BUDGET,
) -> Catalog:
    """Every built-in code over `shifts`, then the `document` specs, each
    built fresh on first use.  Document codes take `table_budget`,
    built-in ones the default.

    A code may use the codes defined before it.  Building one first builds
    the earlier codes it references, transitively and in order, so a long
    chain of references recurses one level at a time.
    """
    document = document or {}
    specs = {**BUILTIN_CODE_SPECS, **document}
    return _CodeCatalog(specs, shifts, document, base_dir, table_budget)


def builtin_groups(document: Mapping | None = None) -> Catalog:
    """Every built-in group with its standard set, then the `document`
    specs, each built fresh on first use."""
    return Catalog({**BUILTIN_GROUP_SPECS, **(document or {})}, build_group)


def auto_certifier(model: GroupModel, word: WordExpr) -> Callable[[int], WordExpr] | None:
    """Certificate factory for powers of a distinguished distorted element.

    Only positive powers of the central Heisenberg generator and of the
    distorted Baumslag-Solitar generator have built-in certificates; the
    profiler still validates every produced word against the model, so a
    nonstandard generating set fails loudly rather than silently.
    """
    if len(word.tokens) != 1:
        return None
    name, exponent = word.tokens[0]
    if exponent < 1:
        return None
    if isinstance(model, HeisenbergModel) and name == "s":
        return lambda m: base_q_certificate(exponent * m)
    if isinstance(model, BS1nModel) and name == "a":
        return lambda m: bs_horner_certificate(exponent * m, model.n)
    return None
