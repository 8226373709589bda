"""Document entries and the built-in corpus.

An entry of a document's shifts, codes or groups section names one of the
paper's objects.  Its kind (a key of _SHIFT_FIELDS, _CODE_FIELDS or
_GROUP_FIELDS) fixes the fields it may hold, and build_shift, build_code
or build_group builds it, failing with a ConfigError that names the
entry.  The built-in corpus adds named shifts, codes and groups available
to every experiment without being defined in the document.

Catalogs hold the built-in entries and a document's, and build each entry
by name on first use, so a bad entry fails only what uses it.  Each
builder loads its layer when it first runs, so building groups alone
never loads the symbolic layers.
"""

from __future__ import annotations

from functools import wraps
from pathlib import Path
from typing import TYPE_CHECKING, Mapping

from .config import _is_int, _require_object
from .errors import DEFAULT_TABLE_BUDGET, MAX_FREE_ABELIAN_RANK, ConfigError

if TYPE_CHECKING:
    from .blockcode import BlockCode
    from .grouplab import GeneratingSet, GroupModel
    from .shiftlang import ShiftPresentation


# -- rule tables -------------------------------------------------------------


def load_rule_table(text: str, origin: str = "rule table") -> dict:
    """Parse `window symbol` lines into a table, with row diagnostics.

    Blank lines and lines starting with '#' are skipped.
    """
    table = {}
    width = None
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        fields = stripped.split()
        if len(fields) != 2:
            raise ConfigError(f"{origin} line {lineno}: expected 'window symbol', got {line!r}")
        window, symbol = fields
        if len(symbol) != 1:
            raise ConfigError(f"{origin} line {lineno}: output {symbol!r} must be one symbol")
        if width is None:
            width = len(window)
            if width % 2 == 0:
                raise ConfigError(
                    f"{origin} line {lineno}: window length must be odd, got {width}"
                )
        elif len(window) != width:
            raise ConfigError(
                f"{origin} line {lineno}: window {window!r} has length "
                f"{len(window)}, earlier rows have {width}"
            )
        if window in table:
            raise ConfigError(f"{origin} line {lineno}: duplicate window {window!r}")
        table[window] = symbol
    if not table:
        raise ConfigError(f"{origin}: no rules found")
    return table


# -- entries -----------------------------------------------------------------


def _entry_kind(section: str, name: str, spec: dict, fields: Mapping[str, tuple]) -> str:
    """The entry's kind, a key of `fields`; its spec may hold "kind" and
    the fields[kind] that the builder reads, nothing else.  Failures raise
    a ConfigError naming the entry."""
    kind = spec.get("kind")
    if kind not in fields:
        raise ConfigError(f"{section} {name!r} has unknown kind {kind!r}")
    unknown = sorted(set(spec) - {"kind", *fields[kind]})
    if unknown:
        raise ConfigError(f"{section} {name!r}: unknown field {unknown[0]!r}")
    return kind


def _field(section: str, name: str, spec: dict, field: str, accepts, what: str):
    """spec[field], which must pass `accepts`, else a ConfigError naming
    the entry and the field."""
    value = spec[field]
    if not accepts(value):
        raise ConfigError(f"{section} {name!r}: {field} must be {what}")
    return value


def _entry_errors(section: str):
    """Let a builder's KeyError, ValueError or TypeError out as a
    ConfigError naming the entry (its first argument)."""

    def decorate(build):
        @wraps(build)
        def checked(name, spec, *args, **kwargs):
            try:
                return build(name, spec, *args, **kwargs)
            except ConfigError:
                raise
            except KeyError as exc:
                raise ConfigError(f"{section} {name!r} is missing field {exc}") from exc
            except (ValueError, TypeError) as exc:
                raise ConfigError(f"{section} {name!r}: {exc}") from exc

        return checked

    return decorate


# shift, code and group kind -> the fields of its spec besides "kind"
_SHIFT_FIELDS = {
    "full": ("alphabet",),
    "sft": ("alphabet", "forbidden"),
    "substitution": ("alphabet", "rules"),
    "periodic": ("seed",),
}


@_entry_errors("shift")
def build_shift(name: str, spec: dict) -> ShiftPresentation:
    from .shiftlang import (
        Alphabet,
        FullShift,
        PeriodicOrbit,
        SftForbidden,
        SubstitutionShift,
    )

    kind = _entry_kind("shift", name, spec, _SHIFT_FIELDS)
    if kind == "periodic":
        return PeriodicOrbit(spec["seed"])
    symbols = _field("shift", name, spec, "alphabet",
                     lambda v: isinstance(v, (str, list)), "a string or a JSON list")
    alphabet = Alphabet.of(symbols)
    if kind == "full":
        return FullShift(alphabet)
    if kind == "sft":
        forbidden = _field("shift", name, spec, "forbidden",
                           lambda v: isinstance(v, list), "a JSON list")
        return SftForbidden(alphabet, forbidden)
    rules = _field("shift", name, spec, "rules",
                   lambda v: isinstance(v, dict), "a JSON object")
    return SubstitutionShift(alphabet, rules)


# code kind -> the fields of its spec that name the codes it is built from
_CODE_REFERENCES = {"compose": ("outer", "inner"), "power": ("base",)}

_CODE_FIELDS = {
    "table": ("domain", "table", "file"),
    "shift_power": ("domain", "exponent"),
    "symbol_map": ("domain", "image"),
    "compose": _CODE_REFERENCES["compose"],
    "power": (*_CODE_REFERENCES["power"], "exponent"),
}

CODE_KINDS = tuple(_CODE_FIELDS)


def code_references(spec: dict) -> dict:
    """Field -> the code name it gives, for each reference field of a code
    spec; build_code resolves references through this alone."""
    return {key: spec.get(key) for key in _CODE_REFERENCES.get(spec.get("kind"), ())}


@_entry_errors("code")
def build_code(
    name: str,
    spec: dict,
    shifts: Mapping[str, ShiftPresentation],
    built: Mapping[str, BlockCode],
    base_dir: Path | None = None,
    table_budget: int = DEFAULT_TABLE_BUDGET,
) -> BlockCode:
    """Build one code; compose/power may reference earlier built codes.

    A code whose table would outgrow `table_budget` rows raises
    BudgetExceededError before any row is built."""
    from .blockcode import (
        check_words,
        code_from_table,
        compose,
        power,
        shift_power_code,
        symbol_map_code,
    )

    kind = _entry_kind("code", name, spec, _CODE_FIELDS)

    def domain(radius: int) -> ShiftPresentation:
        ref = spec.get("domain")
        if ref not in shifts:
            raise ConfigError(f"code {name!r} references unknown shift {ref!r}")
        # a negative radius fails in the builder
        if radius >= 0:
            check_words(shifts[ref], 2 * radius + 1, table_budget, "table rows", f"code {name!r}")
        return shifts[ref]

    refs = code_references(spec)

    def code_ref(key: str) -> BlockCode:
        ref = refs[key]
        if ref not in built:
            raise ConfigError(
                f"code {name!r} references code {ref!r} which is not defined "
                "earlier in the document"
            )
        return built[ref]

    if kind == "table":
        if "file" in spec and "table" in spec:
            raise ConfigError(f"code {name!r}: give 'table' or 'file', not both")
        if "file" in spec:
            path = Path(spec["file"])
            if base_dir is not None:
                path = base_dir / path
            try:
                text = path.read_text()
            except OSError as exc:
                raise ConfigError(f"code {name!r}: cannot read {path}: {exc}")
            table = load_rule_table(text, origin=str(path))
        else:
            table = dict(spec["table"])
            if not table:
                raise ConfigError(f"code {name!r}: empty table")
        radius = (len(next(iter(table))) - 1) // 2
        return code_from_table(domain(radius), radius, table)
    if kind == "shift_power":
        exponent = _field("code", name, spec, "exponent", _is_int, "an integer")
        return shift_power_code(domain(abs(exponent)), exponent)
    if kind == "symbol_map":
        return symbol_map_code(domain(0), spec["image"])
    if kind == "compose":
        return compose(code_ref("outer"), code_ref("inner"), table_budget)
    exponent = _field("code", name, spec, "exponent", _is_int, "an integer")
    return power(code_ref("base"), exponent, table_budget)


def _parse_group_element(name: str, kind: str, value, rank: int):
    if not isinstance(value, list):
        raise ConfigError(f"group {name!r}: generator values must be lists")
    if kind == "baumslag_solitar":
        if len(value) != 2:
            raise ConfigError(f"group {name!r}: elements are [power, translation]")
        k, m = value
        if not _is_int(k):
            raise ConfigError(f"group {name!r}: an element's power must be an integer")
        if isinstance(m, str):
            from fractions import Fraction

            try:
                m = Fraction(m)
            except (ValueError, ZeroDivisionError):
                raise ConfigError(
                    f"group {name!r}: translation {m!r} is not a fraction"
                ) from None
            if m.denominator == 1:
                m = int(m)
        elif not _is_int(m):
            raise ConfigError(
                f"group {name!r}: an element's translation must be an integer "
                "or a fraction string"
            )
        return (k, m)
    expected = 3 if kind == "heisenberg" else rank
    if len(value) != expected or not all(_is_int(v) for v in value):
        raise ConfigError(f"group {name!r}: elements are lists of {expected} integers")
    return tuple(value)


_GROUP_FIELDS = {
    "free_abelian": ("rank", "generators"),
    "heisenberg": ("generators",),
    "baumslag_solitar": ("base", "generators"),
}


@_entry_errors("group")
def build_group(name: str, spec: dict) -> tuple[GroupModel, GeneratingSet]:
    from .grouplab import BS1nModel, GeneratingSet, HeisenbergModel, ZdModel

    kind = _entry_kind("group", name, spec, _GROUP_FIELDS)
    if kind == "free_abelian":
        rank = _field("group", name, spec, "rank",
                      lambda v: _is_int(v) and 1 <= v <= MAX_FREE_ABELIAN_RANK,
                      f"an integer from 1 to {MAX_FREE_ABELIAN_RANK}")
        model: GroupModel = ZdModel(rank)
    elif kind == "heisenberg":
        model = HeisenbergModel()
    else:
        model = BS1nModel(_field("group", name, spec, "base", _is_int, "an integer"))
    if "generators" in spec:
        named = _require_object(spec["generators"], f"group {name!r} generators")
        rank = spec.get("rank", 0)
        elements = {
            gen: _parse_group_element(name, kind, value, rank)
            for gen, value in named.items()
        }
        gens = GeneratingSet.from_named(model, elements)
    else:
        gens = GeneratingSet.standard(model)
    return model, gens


# -- the built-in corpus -------------------------------------------------------

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

# section -> its built-in names in order; documents may use them but not
# redefine them
BUILTIN_NAMES = {
    "shifts": BUILTIN_SHIFT_SPECS.keys(),
    "codes": BUILTIN_CODE_SPECS.keys(),
    "groups": BUILTIN_GROUP_SPECS.keys(),
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

    def items(self):
        return ((name, self[name]) for name in self.specs)

    def keep(self, wanted) -> None:
        """Forget every built entry whose name `wanted` rejects; its next
        use builds it again."""
        self._built = {name: entry for name, entry in self._built.items() if wanted(name)}


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

    def __init__(self, specs, shifts, base_dir, table_budget):
        super().__init__(specs)
        self.shifts, self.base_dir, self.table_budget = shifts, base_dir, table_budget

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
        return build_code(name, spec, self.shifts, built, self.base_dir, self.table_budget)


def builtin_codes(
    shifts: Mapping[str, ShiftPresentation],
    document: Mapping | None = None,
    base_dir: Path | None = None,
    table_budget: int = DEFAULT_TABLE_BUDGET,
) -> Catalog:
    """Every built-in code over `shifts`, then the `document` specs, each
    built fresh on first use.  Every code takes `table_budget`.

    A code may use the codes defined before it.  Building one first builds
    the earlier codes it references, transitively and in order, so a long
    chain of references recurses one level at a time.
    """
    specs = {**BUILTIN_CODE_SPECS, **(document or {})}
    return _CodeCatalog(specs, shifts, base_dir, table_budget)


def builtin_groups(document: Mapping | None = None) -> Catalog:
    """Every built-in group with its standard set, then the `document`
    specs, each built fresh on first use."""
    return Catalog({**BUILTIN_GROUP_SPECS, **(document or {})}, build_group)

