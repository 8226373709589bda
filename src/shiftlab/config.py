"""Experiment configuration: a JSON document describing shifts, codes,
groups, and the runs to execute over them.

The document round-trips (parse, serialize, parse) to an identical value,
every reference failure names the offending element, and all budgets are
explicit so reruns are reproducible byte for byte.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Mapping

from .blockcode import (
    DEFAULT_TABLE_BUDGET,
    SUBLINEAR_TREND,
    BlockCode,
    RangeProfile,
    code_from_table,
    _check_table_budget,
    compose,
    power,
    shift_power_code,
    symbol_map_code,
)
from .errors import ConfigError
from .grouplab import (
    DEFAULT_BFS_STATES,
    DEFAULT_RADIUS,
    MIN_GROWTH_RADIUS,
    BS1nModel,
    GeneratingSet,
    GroupModel,
    HeisenbergModel,
    WordExpr,
    ZdModel,
)
from .shiftlang import (
    Alphabet,
    FullShift,
    PeriodicOrbit,
    SftForbidden,
    ShiftPresentation,
    SubstitutionShift,
)

RUN_NAME_CHARS = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_-")


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


@dataclass(frozen=True)
class Budgets:
    """Resource ceilings shared by every run of one experiment."""

    table_rows: int = DEFAULT_TABLE_BUDGET
    bfs_states: int = DEFAULT_BFS_STATES
    radius_cap: int = DEFAULT_RADIUS

    def __post_init__(self):
        for name, value in asdict(self).items():
            if not _is_int(value):
                raise ConfigError(f"budget {name} must be an integer")
            if value < 1:
                raise ConfigError(f"budget {name} must be positive")


@dataclass(frozen=True)
class RunSpec:
    """One operation invocation: a unique name, the operation, its params.

    fabricated marks runs whose inputs are deliberately corrupted detector
    probes; their Violations are expected and do not fail the experiment.
    """

    name: str
    operation: str
    params: dict = field(default_factory=dict)
    fabricated: bool = False

    def __post_init__(self):
        if not (isinstance(self.name, str) and self.name and set(self.name) <= RUN_NAME_CHARS):
            raise ConfigError(
                f"run name {self.name!r} must be nonempty and use only "
                "letters, digits, '_' or '-'"
            )
        if not isinstance(self.operation, str) or not self.operation:
            raise ConfigError(f"run {self.name!r} needs an operation")
        if not isinstance(self.fabricated, bool):
            raise ConfigError(f"run {self.name!r}: fabricated must be true or false")


@dataclass(frozen=True)
class ExperimentConfig:
    shifts: dict = field(default_factory=dict)
    codes: dict = field(default_factory=dict)
    groups: dict = field(default_factory=dict)
    runs: tuple = ()
    out_dir: str = "results"
    budgets: Budgets = field(default_factory=Budgets)


_TOP_LEVEL_KEYS = {"shifts", "codes", "groups", "runs", "out_dir", "budgets"}
_RUN_KEYS = {"name", "operation", "params", "fabricated"}


# -- operation parameters ------------------------------------------------------

REQUIRED = object()


@dataclass(frozen=True)
class Param:
    """One operation parameter: the kind of value it takes and its default.

    A kind is a reference ("shift", "code", "group", or "code_map", an
    object of code names), a key of _VALUE_KINDS, or a tuple of the
    strings allowed.  A REQUIRED parameter has no default, a callable
    default is applied to the run's budgets, and a parameter whose default
    is None also accepts null.
    """

    kind: object
    default: object = REQUIRED


@dataclass(frozen=True)
class Operation:
    """The parameters of one operation.

    An operation with variants also takes the parameters of exactly one of
    them.  When `by` names a parameter, its value picks the variant;
    otherwise the first variant named after a given parameter applies,
    else the last one.  With code_on_shift, the `code` must act on the
    `shift`.
    """

    params: Mapping[str, Param]
    variants: Mapping[str, Mapping[str, Param]] = field(default_factory=dict)
    by: str | None = None
    code_on_shift: bool = False


SHIFT = Param("shift")
CODE = Param("code")
GROUP = Param("group")
POSITIVE = Param("positive")
RADIUS = Param("positive", lambda budgets: budgets.radius_cap)
ELEMENT = Param("word")
CERTIFIER = Param(("auto", "none"), "auto")
PROFILE = Param("profile")

_PATCH_FAMILY = {"shift": SHIFT, "code": CODE, "length": POSITIVE, "height": POSITIVE}

# audits read a range profile either literally or by profiling a code
_PROFILE_SOURCE = {
    "range_entries": {"range_entries": PROFILE},
    "code": {"code": CODE, "depth_range": POSITIVE},
}

OPERATION_PARAMS = {
    "complexity": Operation({"shift": SHIFT, "depth": POSITIVE}),
    "morse_hedlund": Operation({"shift": SHIFT, "limit": POSITIVE}),
    "special_words": Operation(
        {"shift": SHIFT, "length": POSITIVE, "side": Param(("right", "left"), "right")}
    ),
    "range_profile": Operation({"code": CODE, "depth": POSITIVE}),
    "minimal_range": Operation({"code": CODE}),
    "inverse_search": Operation({"code": CODE, "radius_cap": RADIUS}),
    "endomorphism_check": Operation({"code": CODE}),
    "rectangle_complexity": Operation(
        {"shift": SHIFT, "code": CODE, "cols": POSITIVE, "rows": POSITIVE}, code_on_shift=True
    ),
    "cyr_kra": Operation(_PATCH_FAMILY, code_on_shift=True),
    "vertical_period": Operation(_PATCH_FAMILY, code_on_shift=True),
    "coding_check": Operation(
        {**_PATCH_FAMILY, "cells_a": Param("cells"), "cells_b": Param("cells")},
        code_on_shift=True,
    ),
    "ball_growth": Operation({"group": GROUP, "radius": Param("growth_radius")}),
    "word_length": Operation({"group": GROUP, "element": ELEMENT, "radius": RADIUS}),
    "distortion": Operation(
        {"group": GROUP, "element": ELEMENT, "depth": POSITIVE, "radius": RADIUS,
         "certificate": CERTIFIER}
    ),
    "certificate": Operation(
        {},
        by="kind",
        variants={
            "bs_horner": {"m": POSITIVE, "base": Param("base")},
            "heisenberg_square": {"n": POSITIVE},
            "heisenberg_base_q": {"n": POSITIVE},
        },
    ),
    "growth_formula": Operation(
        {},
        by="formula",
        variants={
            "bass_guivarch": {"ranks": Param("naturals")},
            "min_growth_degree": {"step": POSITIVE},
            "embedding_step_bound": {"complexity_exponent": Param("number")},
        },
    ),
    "audit_range_word": Operation(
        {"group": GROUP, "element": ELEMENT, "depth": POSITIVE,
         "codes": Param("code_map"), "radius": RADIUS, "certificate": CERTIFIER},
        variants={
            "range_entries": {"range_entries": PROFILE},
            "element_code": {"element_code": CODE},
        },
    ),
    "audit_entropy": Operation(
        {"shift": SHIFT, "depth_complexity": POSITIVE, "tolerance": Param("number", 0.05)},
        variants=_PROFILE_SOURCE,
    ),
    "audit_polynomial": Operation(
        {"shift": SHIFT, "depth": POSITIVE, "root": Param("positive", None),
         "require_sublinear": Param("bool", True)},
        variants=_PROFILE_SOURCE,
    ),
    "audit_shift_power": Operation(
        {"shift": SHIFT, "exponent": Param("nonzero"), "depth": POSITIVE}
    ),
}

# the catalog section each reference kind names entries of
_SECTION_OF = {"shift": "shifts", "code": "codes", "code_map": "codes", "group": "groups"}

# parameter name -> reference kind, over every operation; parse_config
# checks references by name so it needs no operation lookup
_REFERENCE_PARAMS = {
    name: param.kind
    for op in OPERATION_PARAMS.values()
    for params in (op.params, *op.variants.values())
    for name, param in params.items()
    if param.kind in _SECTION_OF
}


def _require_object(value, what: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"{what} must be a JSON object")
    return value


def parse_config(text: str, builtin_names: Mapping[str, frozenset] | None = None) -> ExperimentConfig:
    """Parse and validate a configuration document.

    builtin_names optionally maps each section ("shifts", "codes",
    "groups") to the names predefined by the runner; run references may
    use those in addition to the names defined in the document, which may
    not redefine them.
    """
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"configuration is not valid JSON: {exc}") from exc
    raw = _require_object(raw, "configuration")
    unknown = set(raw) - _TOP_LEVEL_KEYS
    if unknown:
        raise ConfigError(f"unknown configuration keys: {sorted(unknown)}")

    sections, known = {}, {}
    for section in ("shifts", "codes", "groups"):
        entries = _require_object(raw.get(section, {}), section)
        for name, spec in entries.items():
            spec = _require_object(spec, f"{section} entry {name!r}")
            if not isinstance(spec.get("kind"), str):
                raise ConfigError(f"{section} entry {name!r} needs a 'kind' string")
        builtin = set((builtin_names or {}).get(section, ()))
        clashes = sorted(entries.keys() & builtin)
        if clashes:
            raise ConfigError(f"{section} {clashes} shadow built-in names")
        sections[section] = dict(entries)
        known[section] = entries.keys() | builtin

    budgets_raw = _require_object(raw.get("budgets", {}), "budgets")
    unknown = set(budgets_raw) - set(asdict(Budgets()))
    if unknown:
        raise ConfigError(f"unknown budget keys: {sorted(unknown)}")
    budgets = Budgets(**budgets_raw)

    out_dir = raw.get("out_dir", "results")
    if not isinstance(out_dir, str) or not out_dir:
        raise ConfigError("out_dir must be a nonempty string")

    runs = []
    seen_names = set()
    runs_raw = raw.get("runs", [])
    if not isinstance(runs_raw, list):
        raise ConfigError("runs must be a JSON list")
    for i, entry in enumerate(runs_raw):
        entry = _require_object(entry, f"runs[{i}]")
        unknown = set(entry) - _RUN_KEYS
        if unknown:
            raise ConfigError(f"runs[{i}]: unknown keys {sorted(unknown)}")
        try:
            run = RunSpec(
                entry.get("name", ""),
                entry.get("operation", ""),
                _require_object(entry.get("params", {}), f"runs[{i}] params"),
                entry.get("fabricated", False),
            )
        except ConfigError as exc:
            raise ConfigError(f"runs[{i}]: {exc}") from exc
        if run.name in seen_names:
            raise ConfigError(f"duplicate run name {run.name!r}")
        seen_names.add(run.name)
        _check_references(run, known)
        runs.append(run)

    return ExperimentConfig(
        sections["shifts"], sections["codes"], sections["groups"],
        tuple(runs), out_dir, budgets,
    )


def _reference_names(run: RunSpec, name: str, kind: str, value, known) -> list:
    """The names a reference parameter gives, each checked to be in known."""
    refs = [value]
    if kind == "code_map":
        refs = list(_require_object(value, f"run {run.name!r} parameter {name!r}").values())
    for ref in refs:
        if not isinstance(ref, str) or ref not in known:
            raise ConfigError(
                f"run {run.name!r} references unknown {_SECTION_OF[kind][:-1]} {ref!r}"
            )
    return refs


def _check_references(run: RunSpec, known: Mapping[str, set]) -> None:
    for name, value in run.params.items():
        kind = _REFERENCE_PARAMS.get(name)
        if kind is not None:
            _reference_names(run, name, kind, value, known[_SECTION_OF[kind]])


def check_run(run: RunSpec, catalogs) -> dict:
    """Check a run's params against its operation's entry in OPERATION_PARAMS.

    Returns every parameter's checked value by name, with defaults filled
    in and references resolved.  `catalogs` supplies the run's `budgets`
    and the `shifts`, `codes` and `groups` catalogs; only those a
    reference names are read.  An `element` word may use only the
    generators of the run's group.  A failure raises ConfigError naming
    the run and the parameter.
    """
    op = OPERATION_PARAMS.get(run.operation)
    if op is None:
        raise ConfigError(f"run {run.name!r} uses unknown operation {run.operation!r}")
    params = dict(op.params)
    if op.by is not None:
        params[op.by] = Param(tuple(op.variants))
        params.update(op.variants[_checked_param(run, op.by, params[op.by], catalogs)])
    elif op.variants:
        given = [name for name in op.variants if name in run.params]
        params.update(op.variants[given[0] if given else list(op.variants)[-1]])
    unknown = sorted(set(run.params) - set(params))
    if unknown:
        raise ConfigError(f"run {run.name!r}: unknown parameter {unknown[0]!r}")
    values = {
        name: _checked_param(run, name, param, catalogs) for name, param in params.items()
    }
    if op.code_on_shift and values["code"].domain != values["shift"]:
        raise ConfigError(
            f"run {run.name!r}: parameter 'code': the code is not defined on shift "
            f"{run.params['shift']!r}"
        )
    # every operation with an element word also takes the group it lives in
    if "element" in values:
        _, gens = values["group"]
        binding = gens.binding()
        for gen, _ in values["element"].tokens:
            if gen not in binding:
                raise ConfigError(
                    f"run {run.name!r}: parameter 'element': word uses unbound generator {gen!r}"
                )
    return values


def _is_cells(value) -> bool:
    return isinstance(value, list) and all(
        isinstance(cell, list) and len(cell) == 2 and all(map(_is_int, cell))
        for cell in value
    )


def _is_number(value) -> bool:
    # json.loads reads Infinity, NaN and overflowing literals such as 1e400
    return _is_int(value) or (isinstance(value, float) and math.isfinite(value))


def _is_naturals(value) -> bool:
    return isinstance(value, list) and bool(value) and all(
        _is_int(v) and v >= 0 for v in value
    )


# value kind -> (test of the JSON value, what it must be, conversion)
_VALUE_KINDS = {
    "nonzero": (lambda v: _is_int(v) and v != 0, "a nonzero integer", None),
    "positive": (lambda v: _is_int(v) and v >= 1, "an integer >= 1", None),
    "base": (lambda v: _is_int(v) and v >= 2, "an integer >= 2", None),
    "growth_radius": (
        lambda v: _is_int(v) and v >= MIN_GROWTH_RADIUS,
        f"an integer >= {MIN_GROWTH_RADIUS}",
        None,
    ),
    "number": (_is_number, "a finite number", None),
    "bool": (lambda v: isinstance(v, bool), "true or false", None),
    "word": (lambda v: isinstance(v, str), "a word such as 'a b^-2'", WordExpr.parse),
    "cells": (_is_cells, "a list of [col, row] integer pairs", None),
    "naturals": (_is_naturals, "a nonempty list of integers >= 0", None),
    "profile": (_is_naturals, "a nonempty list of integers >= 0", RangeProfile.from_entries),
}


def _checked_param(run: RunSpec, name: str, param: Param, catalogs):
    if name not in run.params:
        if param.default is REQUIRED:
            raise ConfigError(f"run {run.name!r} needs parameter {name!r}")
        return param.default(catalogs.budgets) if callable(param.default) else param.default
    value = run.params[name]
    if value is None and param.default is None:
        return None
    if param.kind in _SECTION_OF:
        catalog = getattr(catalogs, _SECTION_OF[param.kind])
        refs = _reference_names(run, name, param.kind, value, catalog)
        if param.kind == "code_map":
            return {label: catalog[ref] for label, ref in zip(value, refs)}
        return catalog[refs[0]]
    if isinstance(param.kind, tuple):
        choices = ", ".join(map(repr, param.kind))
        accepts, what, convert = param.kind.__contains__, f"one of {choices}", None
    else:
        accepts, what, convert = _VALUE_KINDS[param.kind]
    if not accepts(value):
        raise ConfigError(f"run {run.name!r}: parameter {name!r} must be {what}")
    try:
        return value if convert is None else convert(value)
    except ValueError as exc:
        if param.kind == "profile" and run.fabricated:
            # fabricated detector probes may break the subadditivity law on
            # purpose; the classification is irrelevant for them
            upper = min(Fraction(v, n) for n, v in enumerate(value, 1))
            return RangeProfile(tuple(value), upper, SUBLINEAR_TREND)
        raise ConfigError(f"run {run.name!r}: parameter {name!r}: {exc}") from exc


def serialize_config(config: ExperimentConfig) -> str:
    """Canonical JSON text; parse(serialize(parse(t))) == parse(t)."""
    doc = {
        "shifts": config.shifts,
        "codes": config.codes,
        "groups": config.groups,
        "runs": [
            {
                "name": run.name,
                "operation": run.operation,
                "params": run.params,
                **({"fabricated": True} if run.fabricated else {}),
            }
            for run in config.runs
        ],
        "out_dir": config.out_dir,
        "budgets": asdict(config.budgets),
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


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
            raise ConfigError(
                f"{origin} line {lineno}: expected 'window symbol', got {line!r}"
            )
        window, symbol = fields
        if len(symbol) != 1:
            raise ConfigError(
                f"{origin} line {lineno}: output {symbol!r} must be one symbol"
            )
        if width is None:
            width = len(window)
            if width % 2 == 0:
                raise ConfigError(
                    f"{origin} line {lineno}: window length must be odd, "
                    f"got {width}"
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


# -- object builders ----------------------------------------------------------


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


# shift, code and group kind -> the fields of its spec besides "kind"
_SHIFT_FIELDS = {
    "full": ("alphabet",),
    "sft": ("alphabet", "forbidden"),
    "substitution": ("alphabet", "rules"),
    "periodic": ("seed",),
}


def build_shift(name: str, spec: dict) -> ShiftPresentation:
    kind = _entry_kind("shift", name, spec, _SHIFT_FIELDS)
    try:
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
    except ConfigError:
        raise
    except KeyError as exc:
        raise ConfigError(f"shift {name!r} is missing field {exc}") from exc
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"shift {name!r}: {exc}") from exc


# code kind -> the fields of its spec that name the codes it is built from
_CODE_REFERENCES = {"compose": ("outer", "inner"), "power": ("base",)}

_CODE_FIELDS = {
    "table": ("domain", "table", "file", "radius"),
    "shift_power": ("domain", "exponent"),
    "symbol_map": ("domain", "image"),
    "compose": _CODE_REFERENCES["compose"],
    "power": (*_CODE_REFERENCES["power"], "exponent"),
}


def code_references(spec: dict) -> dict:
    """Field -> the code name it gives, for each reference field of a code
    spec; build_code resolves references through this alone."""
    return {key: spec.get(key) for key in _CODE_REFERENCES.get(spec.get("kind"), ())}


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
    kind = _entry_kind("code", name, spec, _CODE_FIELDS)

    def domain(radius: int) -> ShiftPresentation:
        ref = spec.get("domain")
        if ref not in shifts:
            raise ConfigError(f"code {name!r} references unknown shift {ref!r}")
        # a negative radius fails in the builder
        if radius >= 0:
            _check_table_budget(shifts[ref], radius, table_budget, f"code {name!r}")
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

    try:
        if kind == "table":
            if "file" in spec and "table" in spec:
                raise ConfigError(f"code {name!r}: give 'table' or 'file', not both")
            if "file" in spec:
                path = Path(spec["file"])
                if base_dir is not None and not path.is_absolute():
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
            width = len(next(iter(table)))
            radius = (width - 1) // 2
            if "radius" in spec:
                radius = _field("code", name, spec, "radius", _is_int, "an integer")
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
    except ConfigError:
        raise
    except KeyError as exc:
        raise ConfigError(f"code {name!r} is missing field {exc}") from exc
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"code {name!r}: {exc}") from exc


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
        raise ConfigError(
            f"group {name!r}: elements are lists of {expected} integers"
        )
    return tuple(value)


_GROUP_FIELDS = {
    "free_abelian": ("rank", "generators"),
    "heisenberg": ("generators",),
    "baumslag_solitar": ("base", "generators"),
}


def build_group(name: str, spec: dict) -> tuple[GroupModel, GeneratingSet]:
    kind = _entry_kind("group", name, spec, _GROUP_FIELDS)
    try:
        if kind == "free_abelian":
            model: GroupModel = ZdModel(_field("group", name, spec, "rank", _is_int, "an integer"))
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
    except ConfigError:
        raise
    except KeyError as exc:
        raise ConfigError(f"group {name!r} is missing field {exc}") from exc
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"group {name!r}: {exc}") from exc
