"""Built-in corpus: named shifts, codes, and groups available to every
experiment without being defined in the configuration document."""

from __future__ import annotations

from typing import Callable

from .blockcode import BlockCode
from .config import build_code, build_group, build_shift
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

BUILTIN_GROUP_SPECS = {
    "z1": {"kind": "free_abelian", "rank": 1},
    "z2": {"kind": "free_abelian", "rank": 2},
    "heisenberg": {"kind": "heisenberg"},
    "bs-2": {"kind": "baumslag_solitar", "base": 2},
    "bs-3": {"kind": "baumslag_solitar", "base": 3},
}


def builtin_shifts() -> dict[str, ShiftPresentation]:
    """Fresh instances of every built-in shift, in stable order."""
    return {name: build_shift(name, spec) for name, spec in BUILTIN_SHIFT_SPECS.items()}


def builtin_code_specs() -> dict[str, dict]:
    """Specs for the built-in codes, named `<shift>/<code>`.

    Every shift carries the two shift powers; the letter swap and its
    composition with the shift exist only where the swap is an
    endomorphism.
    """
    specs: dict[str, dict] = {}
    swap = {"0": "1", "1": "0"}
    for shift_name in BUILTIN_SHIFT_SPECS:
        specs[f"{shift_name}/shift"] = {
            "kind": "shift_power",
            "domain": shift_name,
            "exponent": 1,
        }
        specs[f"{shift_name}/shift_inverse"] = {
            "kind": "shift_power",
            "domain": shift_name,
            "exponent": -1,
        }
        if shift_name in FLIP_COMPATIBLE:
            specs[f"{shift_name}/flip"] = {
                "kind": "symbol_map",
                "domain": shift_name,
                "image": dict(swap),
            }
            specs[f"{shift_name}/shift_flip"] = {
                "kind": "compose",
                "outer": f"{shift_name}/shift",
                "inner": f"{shift_name}/flip",
            }
    return specs


def builtin_codes(shifts: dict[str, ShiftPresentation]) -> dict[str, BlockCode]:
    """Fresh instances of every built-in code over `shifts`, in stable order."""
    built: dict[str, BlockCode] = {}
    for name, spec in builtin_code_specs().items():
        built[name] = build_code(name, spec, shifts, built)
    return built


def builtin_groups() -> dict[str, tuple[GroupModel, GeneratingSet]]:
    """Fresh instances of every built-in group with its standard set."""
    return {name: build_group(name, spec) for name, spec in BUILTIN_GROUP_SPECS.items()}


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
