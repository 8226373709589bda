"""Experiment configuration: a JSON document describing shifts, codes,
groups, and the runs to execute over them.

This module owns the document grammar and the run parameters
(OPERATION_PARAMS, checked by check_run); the entries of the shifts,
codes and groups sections are checked and built by `corpus`.  The
document round-trips (parse, serialize, parse) to an identical value,
every reference failure names the offending element, and all budgets are
explicit so reruns are reproducible byte for byte.
"""

from __future__ import annotations

import json
import math
from typing import AbstractSet, Mapping

from .errors import (
    DEFAULT_BFS_STATES,
    DEFAULT_RADIUS,
    DEFAULT_TABLE_BUDGET,
    MAX_DEPTH,
    MIN_GROWTH_RADIUS,
    ConfigError,
    asdict,
    field,
    record,
)

RUN_NAME_CHARS = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_-")


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


@record
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


@record
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


@record
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


@record
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


@record
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
DEPTH = Param("depth")
RADIUS = Param("positive", lambda budgets: budgets.radius_cap)
ELEMENT = Param("word")
PROFILE = Param("profile")

_PATCH_FAMILY = {"shift": SHIFT, "code": CODE, "length": POSITIVE, "height": POSITIVE}

# audits read a range profile either literally or by profiling a code
_PROFILE_SOURCE = {
    "range_entries": {"range_entries": PROFILE},
    "code": {"code": CODE, "depth_range": DEPTH},
}

OPERATION_PARAMS = {
    "complexity": Operation({"shift": SHIFT, "depth": DEPTH}),
    "morse_hedlund": Operation({"shift": SHIFT, "limit": POSITIVE}),
    "special_words": Operation(
        {"shift": SHIFT, "length": POSITIVE, "side": Param(("right", "left"), "right")}
    ),
    "range_profile": Operation({"code": CODE, "depth": DEPTH}),
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
        {"group": GROUP, "element": ELEMENT, "depth": DEPTH, "radius": RADIUS}
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
        {"group": GROUP, "element": ELEMENT, "depth": DEPTH,
         "codes": Param("code_map"), "radius": RADIUS},
        variants={
            "range_entries": {"range_entries": PROFILE},
            "element_code": {"element_code": CODE},
        },
    ),
    "audit_entropy": Operation(
        {"shift": SHIFT, "depth_complexity": DEPTH},
        variants=_PROFILE_SOURCE,
    ),
    "audit_polynomial": Operation(
        {"shift": SHIFT, "depth": DEPTH, "root": Param("positive", None),
         "require_sublinear": Param("bool", True)},
        variants=_PROFILE_SOURCE,
    ),
    "audit_shift_power": Operation(
        {"shift": SHIFT, "exponent": Param("nonzero"), "depth": DEPTH}
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


def parse_config(
    text: str, builtin_names: Mapping[str, AbstractSet[str]] | None = None
) -> ExperimentConfig:
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
        named_entries(run, known)
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


def named_entries(run: RunSpec, known: Mapping[str, AbstractSet[str]]) -> list:
    """(section, name) of each entry the run's parameters name, each
    checked to be in known[section]."""
    return [
        (_SECTION_OF[kind], ref)
        for name, value in run.params.items()
        if (kind := _REFERENCE_PARAMS.get(name)) is not None
        for ref in _reference_names(run, name, kind, value, known[_SECTION_OF[kind]])
    ]


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


def _word(value: str):
    from .grouplab import WordExpr

    return WordExpr.parse(value)


def _profile(entries: list):
    from .blockcode import RangeProfile

    return RangeProfile.from_entries(entries)


# value kind -> (test of the JSON value, what it must be, conversion); a
# conversion loads its layer when a run first needs it
_VALUE_KINDS = {
    "nonzero": (lambda v: _is_int(v) and v != 0, "a nonzero integer", None),
    "positive": (lambda v: _is_int(v) and v >= 1, "an integer >= 1", None),
    "depth": (lambda v: _is_int(v) and 1 <= v <= MAX_DEPTH,
              f"an integer from 1 to {MAX_DEPTH}", None),
    "base": (lambda v: _is_int(v) and v >= 2, "an integer >= 2", None),
    "growth_radius": (
        lambda v: _is_int(v) and v >= MIN_GROWTH_RADIUS,
        f"an integer >= {MIN_GROWTH_RADIUS}",
        None,
    ),
    "number": (_is_number, "a finite number", None),
    "bool": (lambda v: isinstance(v, bool), "true or false", None),
    "word": (lambda v: isinstance(v, str), "a word such as 'a b^-2'", _word),
    "cells": (_is_cells, "a list of [col, row] integer pairs", None),
    "naturals": (_is_naturals, "a nonempty list of integers >= 0", None),
    "profile": (_is_naturals, "a nonempty list of integers >= 0", _profile),
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
    # an ArithmeticError is, say, a float overflow while fitting huge entries
    except (ValueError, ArithmeticError) as exc:
        if param.kind == "profile" and run.fabricated:
            # fabricated detector probes may break the subadditivity law on
            # purpose; the classification is irrelevant for them
            from fractions import Fraction

            from .blockcode import SUBLINEAR_TREND, RangeProfile

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
