"""Independent brute-force reference computations for the test suite.

Everything here is deliberately naive: filter all strings, iterate rules
to a long prefix, enumerate rotations.  The implementations under test are
compared against these on small inputs, and frozen constants in the tests
were produced by these functions once and pinned.  run_capped runs a
script in a child under a memory cap, for tests that a runaway power of n
or a quadratic buffer must fail rather than slow down.  record_spelling
and forbid_spelling watch the word lists a presentation spells, for the
work gates.  dataclass_twin rebuilds a record class as the frozen
dataclass it stands in for.  argparse_command_line reads a command line
with the argparse parser that `shiftlab` used before it read its own.
"""

import argparse
import dataclasses
import math
import os
import subprocess
import sys
from fractions import Fraction
from functools import cache
from itertools import product
from pathlib import Path

import pytest

import shiftlab
from shiftlab.blockcode import (
    LINEAR_LOWER_BOUNDED,
    SUBLINEAR_TREND,
    IllegalWindowError,
    RangeProfile,
    apply_to_word,
    code_from_table,
    minimized,
)
from shiftlab.cli import execute_config
from shiftlab.errors import BudgetExceededError, field, replace


def golden_mean_words(n: int) -> set[str]:
    """All binary words of length n avoiding '11'.

    Padding any such word with zeros on both sides gives a legal
    bi-infinite point, so plain avoidance equals legality here.
    """
    return {
        "".join(p)
        for p in product("01", repeat=n)
        if "11" not in "".join(p)
    }


def sft_words_brute(alphabet: str, forbidden: list[str], n: int, pad: int = 12) -> set[str]:
    """Legal length-n words of an SFT by checking two-sided extendability.

    A word counts only if it extends `pad` letters on both sides without
    hitting a forbidden factor.  For the small presentations used in tests
    a 12-letter margin is far beyond every forbidden length, and the
    subgraph reached this deep is already bi-essential.  A word w shorter
    than span (the longest forbidden length less one) is first extended on
    the right to that length in every way; no forbidden factor can touch
    letters added on both sides of such a w + y, so its sides extend
    independently.  Every forbidden factor that an added letter completes
    lies within that letter and the span letters next to it, so whether a
    clean word extends on the right (left) depends only on its last (first)
    span letters, and the searches are cached on those.
    """
    clean = lambda w: not any(f in w for f in forbidden)
    span = max(map(len, forbidden), default=1) - 1
    last = lambda w: w[max(len(w) - span, 0):]

    @cache
    def grow_right(w, steps):
        if steps == 0:
            return True
        return any(clean(w + a) and grow_right(last(w + a), steps - 1) for a in alphabet)

    @cache
    def grow_left(w, steps):
        if steps == 0:
            return True
        return any(clean(a + w) and grow_left((a + w)[:span], steps - 1) for a in alphabet)

    out = set()
    for p in product(alphabet, repeat=n):
        w = "".join(p)
        if any(
            clean(w + y) and grow_right(last(w + y), pad) and grow_left((w + y)[:span], pad)
            for y in map("".join, product(alphabet, repeat=max(span - n, 0)))
        ):
            out.add(w)
    return out


def substitution_words(rules: dict, n: int, iterations: int = 16) -> set[str]:
    """Factors of a deep iterate of a primitive rule, stabilized.

    Iterates from every starting letter, and insists the factor sets of
    depth `iterations` and `iterations + 1` agree so the answer is a fixed
    point rather than an artifact of stopping early.
    """

    def factors_at(depth):
        found = set()
        for start in rules:
            w = start
            for _ in range(depth):
                w = "".join(rules[c] for c in w)
                if len(w) > 4 * n + 64:
                    # keep a window: factors of a prefix of the fixed point
                    w = w[: 4 * n + 64]
            found |= {w[i : i + n] for i in range(len(w) - n + 1)}
        return found

    a, b = factors_at(iterations), factors_at(iterations + 1)
    assert a == b, "oracle did not stabilize; deepen the iteration"
    return a


def substitution_factors(rules: dict, n: int, floor: int | None = None) -> set[str]:
    """Legal n-words of a primitive substitution by per-length inflation.

    The legal 2-blocks are the least fixed point of T -> base ∪ {2-factors
    of rule(b)+rule(c) : bc in T}; each is inflated K times, K the least
    with every |rule^K(a)| >= floor (n by default), and the n-factors of
    the inflated blocks are collected.  This is how SubstitutionShift
    enumerated words before it read them off one suffix automaton.
    """
    two = lambda w: {w[i : i + 2] for i in range(len(w) - 1)}
    base = set()
    for image in rules.values():
        base |= two(image)
    blocks = frozenset(base)
    while True:
        grown = set(base)
        for bc in blocks:
            grown |= two(rules[bc[0]] + rules[bc[1]])
        if grown == blocks:
            break
        blocks = frozenset(grown)
    images = dict(rules)
    while min(len(w) for w in images.values()) < (n if floor is None else floor):
        images = {a: "".join(map(rules.__getitem__, w)) for a, w in images.items()}
    found = set()
    for bc in blocks:
        w = images[bc[0]] + images[bc[1]]
        found |= {w[i : i + n] for i in range(len(w) - n + 1)}
    return found


def periodic_words(seed: str, n: int) -> set[str]:
    s = seed * (n // len(seed) + 2)
    return {s[i : i + n] for i in range(len(seed))}


def count_words_by_paths(shift, n: int) -> int:
    """|L_n| as the number of n-step paths from state 0 of the shift's
    automaton, walked one level at a time: how factor shifts counted before
    they read P(n) off the suffix links."""
    shift._deepen(n)
    tails = [0]
    for _ in range(n):
        tails = [u for t in tails for _, u in shift._edges[t]]
    return len(tails)


def special_words_by_extension(longer: set[str], side: str) -> set[str]:
    """The n-words with at least two one-letter extensions on `side`, read
    off the set of legal (n+1)-words by spelling each one's core."""
    seen = {}
    for w in longer:
        core, ext = (w[:-1], w[-1]) if side == "right" else (w[1:], w[0])
        seen.setdefault(core, set()).add(ext)
    return {w for w, exts in seen.items() if len(exts) >= 2}


def fibonacci_rules() -> dict:
    return {"0": "01", "1": "0"}


def submultiplicative_failure(values) -> str | None:
    """The message for the first pair (i, j), over every ordered pair, with
    P(i + j) > P(i)P(j), or None when the counts are submultiplicative."""
    n = len(values)
    for i in range(1, n + 1):
        for j in range(1, n - i + 1):
            if values[i + j - 1] > values[i - 1] * values[j - 1]:
                return f"P({i + j}) > P({i})P({j}): not submultiplicative"
    return None


def word_key_tuple(symbols: str, word: str) -> tuple[int, ...]:
    """Alphabet-order sort key as the tuple of symbol indices."""
    index = {s: i for i, s in enumerate(symbols)}
    return tuple(index[c] for c in word)


def power_by_squaring(model, a, e: int):
    """a^e in a group model by square-and-multiply on model.multiply."""
    if e < 0:
        a, e = model.inverse(a), -e
    acc = model.identity()
    while e:
        if e & 1:
            acc = model.multiply(acc, a)
        a = model.multiply(a, a)
        e >>= 1
    return acc


def evaluate_by_multiply(word, model, binding: dict):
    """A word's value by square-and-multiply powers and one model.multiply
    per token.

    The evaluation shiftlab used before per-model folds, kept as the
    reference: it checks each name as it reaches its token, and reaches
    the model only through identity, inverse and multiply.
    """
    acc = model.identity()
    for name, exp in word.tokens:
        if name not in binding:
            raise ValueError(f"word uses unbound generator {name!r}")
        acc = model.multiply(acc, power_by_squaring(model, binding[name], exp))
    return acc


def bs_multiply(n: int, a, b):
    """(k1,m1)(k2,m2) in BS(1,n) on Fractions, integral translations as int."""
    (k1, m1), (k2, m2) = a, b
    m = Fraction(n) ** k1 * m2 + m1
    return (k1 + k2, int(m) if m.denominator == 1 else m)


def cayley_ball_by_multiply(model, gens, radius_max: int, state_budget: int, targets=None) -> dict:
    """{element: word length} by a state-at-a-time BFS on model.multiply.

    The search shiftlab used before packed states, kept as the reference:
    one multiply per (state, generator) pair, the budget checked before
    each new state.
    """
    if radius_max < 0:
        raise ValueError("radius_max must be nonnegative")
    if gens.model != model:
        raise ValueError("generating set belongs to a different model")
    moves = [element for _, element in gens.labeled()]
    multiply = model.multiply
    dist = {model.identity(): 0}
    wanted = set(targets) if targets is not None else None
    if wanted is not None and wanted <= dist.keys():
        return dist
    frontier = [model.identity()]
    for radius in range(1, radius_max + 1):
        nxt = []
        for g in frontier:
            for m in moves:
                h = multiply(g, m)
                if h not in dist:
                    if len(dist) >= state_budget:
                        raise BudgetExceededError(
                            "bfs states",
                            state_budget,
                            len(dist) + 1,
                            f"last completed radius {radius - 1}",
                        )
                    dist[h] = radius
                    nxt.append(h)
        if wanted is not None:
            wanted -= dist.keys()
            if not wanted:
                return dist
        if not nxt:
            return dist
        frontier = nxt
    return dist


def subadditive_closure_loop(upper: dict, exact: dict, max_power: int) -> dict:
    """{n: bound} closed under bound(n) <= bound(k) + bound(n - k), by a double loop.

    Raises ValueError when a closed bound is below the exact value.
    """
    hull = {}
    for n in range(1, max_power + 1):
        best = upper.get(n)
        for k in range(1, n // 2 + 1):
            if k in hull and (n - k) in hull:
                combined = hull[k] + hull[n - k]
                if best is None or combined < best:
                    best = combined
        if best is not None:
            if n in exact and best < exact[n]:
                raise ValueError(
                    f"upper-bound closure {best} beats the exact metric {exact[n]} "
                    f"at power {n}: unsound"
                )
            hull[n] = best
    return hull


def embedding_step_bound_by_loop(complexity_exponent) -> int:
    """Least step d >= 1 with (d+1)(d+2)/2 + 2 >= the exponent, counting d up."""
    d = 1
    while (d + 1) * (d + 2) // 2 + 2 < complexity_exponent:
        d += 1
    return d


def build_patches_by_slide(domain, code, n: int, k: int, word_budget: int = 2_000_000):
    """n x k spacetime patches, applying the code to each row from scratch.

    Returns (rows, source_word) pairs in first-seen order of the sorted word
    enumeration, raising what slide-by-slide application raises.
    """
    if n < 1 or k < 1:
        raise ValueError("patch dimensions must be positive")
    if code.domain != domain:
        raise ValueError("code is not defined on the given presentation")
    phi = minimized(code)
    length = n + 2 * (k - 1) * phi.rule.radius
    words = domain.count_words(length)
    if words > word_budget:
        raise BudgetExceededError("generating words", word_budget, words, "build_patches")
    seen = {}
    for w in domain.words_of_length(length):
        rows = []
        current = w
        for _ in range(k):
            margin = (len(current) - n) // 2
            rows.append(current[margin : margin + n])
            if len(rows) < k:
                current = apply_to_word(phi, current)
        seen.setdefault(tuple(rows), w)
    return list(seen.items())


def rectangle_sweep(domain, code, cols: int, rows: int, word_budget: int = 2_000_000) -> dict:
    """{(n, k): count}, building every n x k family on its own, k outer."""
    return {
        (n, k): len(build_patches_by_slide(domain, code, n, k, word_budget))
        for k in range(1, rows + 1)
        for n in range(1, cols + 1)
    }


# -- block-code table algebra on string tables ---------------------------------
#
# The string implementation the word-index algebra in shiftlab.blockcode
# replaced: every table row slides the inner rule along its window.  Errors
# are raised at the same points and with the same text.


def shift_power_code_by_table(domain, j: int):
    """The index shift by j as a spelled table {window: window[r + j]}, r = |j|."""
    r = abs(j)
    table = {w: w[r + j] for w in domain.words_of_length(2 * r + 1)}
    return code_from_table(domain, r, table)


def _check_table_budget(domain, radius: int, budget: int, context: str):
    rows = domain.count_words(2 * radius + 1)
    if rows > budget:
        raise BudgetExceededError("table rows", budget, rows, context)


def compose_by_slide(outer, inner, table_budget: int = 2_000_000):
    if outer.domain != inner.domain:
        raise ValueError("composition requires codes on the same presentation")
    r = outer.rule.radius + inner.rule.radius
    _check_table_budget(outer.domain, r, table_budget, "compose")
    outer_table = outer.rule.table
    table = {}
    for w in outer.domain.words_of_length(2 * r + 1):
        mid = apply_to_word(inner, w)
        try:
            table[w] = outer_table[mid]
        except KeyError:
            raise IllegalWindowError(
                mid, "inner code's image leaves the domain language"
            ) from None
    return code_from_table(outer.domain, r, table)


def minimal_range_by_scan(code) -> int:
    """Scans radii upward; at radius r' the table factors through the
    central (2r'+1)-window iff all windows sharing a center agree."""
    r = code.rule.radius
    for shrunk in range(r):
        cut = r - shrunk
        seen = {}
        for w, out in code.rule.table.items():
            if seen.setdefault(w[cut:-cut], out) != out:
                break
        else:
            return shrunk
    return r


def minimized_by_scan(code):
    r = code.rule.radius
    m = minimal_range_by_scan(code)
    if m == r:
        return code
    cut = r - m
    table = {w[cut:-cut]: out for w, out in code.rule.table.items()}
    ordered = {w: table[w] for w in code.domain.words_of_length(2 * m + 1)}
    return code_from_table(code.domain, m, ordered)


def is_identity_by_scan(code) -> bool:
    m = minimized_by_scan(code)
    return m.rule.radius == 0 and all(w == out for w, out in m.rule.table.items())


def power_by_slide(code, n: int, table_budget: int = 2_000_000):
    if n < 1:
        raise ValueError("power needs n >= 1")
    acc = minimized_by_scan(code)
    for _ in range(n - 1):
        acc = minimized_by_scan(compose_by_slide(acc, code, table_budget))
    return acc


def range_profile_by_slide(code, max_power: int, table_budget: int = 2_000_000):
    if max_power < 1:
        raise ValueError("profile needs max_power >= 1")
    acc = minimized_by_scan(code)
    entries = [acc.rule.radius]
    truncated_at = None
    for n in range(2, max_power + 1):
        try:
            acc = minimized_by_scan(compose_by_slide(acc, code, table_budget))
        except BudgetExceededError:
            truncated_at = n
            break
        entries.append(acc.rule.radius)
    return RangeProfile.from_entries(entries, truncated_at)


def endomorphism_check_by_slide(code) -> bool:
    domain = code.domain
    forbidden = getattr(domain, "forbidden", None)
    output_length = max(map(len, forbidden)) if forbidden else 8
    r = code.rule.radius
    return all(
        {apply_to_word(code, w) for w in domain.words_of_length(n + 2 * r)}
        <= set(domain.words_of_length(n))
        for n in range(1, output_length + 1)
    )


def inverse_search_by_slide(code, radius_max: int, table_budget: int = 2_000_000):
    phi = minimized_by_scan(code)
    r = phi.rule.radius
    for r_inv in range(radius_max + 1):
        _check_table_budget(phi.domain, r + r_inv, table_budget, "inverse search")
        candidate = {}
        for w in phi.domain.words_of_length(2 * (r + r_inv) + 1):
            if candidate.setdefault(apply_to_word(phi, w), w[r + r_inv]) != w[r + r_inv]:
                break
        else:
            if set(candidate) != set(phi.domain.words_of_length(2 * r_inv + 1)):
                continue
            words = phi.domain.words_of_length(2 * r_inv + 1)
            psi = code_from_table(phi.domain, r_inv, {w: candidate[w] for w in words})
            if is_identity_by_scan(compose_by_slide(psi, phi, table_budget)) and (
                is_identity_by_scan(compose_by_slide(phi, psi, table_budget))
            ):
                return psi
    return None


# -- growth verdicts as blockcode and grouplab gave them -----------------------
#
# Before shiftlab.trends owned every shape verdict, blockcode classified range
# profiles with its own through-origin line and grouplab named trend fits.


def classify_entries(entries) -> str:
    """Tail verdict: does the profile stay above a positive linear bound?

    Fits a line through the origin on the top-half window and demands the
    data sit above 95% of it pointwise; anything else (including all-zero
    finite-order profiles) counts as a sublinear trend.
    """
    n_total = len(entries)
    window = range(max(1, math.isqrt(max(n_total - 1, 0)) + 1), n_total + 1)
    num = sum(n * entries[n - 1] for n in window)
    den = sum(n * n for n in window)
    slope = num / den
    if slope <= 0:
        return SUBLINEAR_TREND
    if all(entries[n - 1] >= 0.95 * slope * n for n in window):
        return LINEAR_LOWER_BOUNDED
    return SUBLINEAR_TREND


def trend_class_label(trend) -> str:
    if trend is None:
        return "Inconclusive"
    if trend.kind == "linear":
        return "Linear"
    if trend.kind == "logarithmic":
        return "Logarithmic"
    if trend.kind == "polynomial":
        return f"Polynomial(1/{trend.root})"
    return "Inconclusive"


# -- the runner with one context per run ------------------------------------


def execute_each_run_alone(config, base_dir: Path) -> tuple[int, str]:
    """cli.execute_config with every run in a fresh RunContext of its own.

    Each run executes as a one-run document, so no entry, word index,
    range profile or patch family is shared between runs.  Writes every
    run's file and the whole summary to config.out_dir, and returns the
    (exit status, summary CSV text) of the whole document.
    """
    status, summary = execute_config(replace(config, runs=()), base_dir)
    for run in config.runs:
        alone, text = execute_config(replace(config, runs=(run,)), base_dir)
        status, summary = max(status, alone), summary + text.split("\n", 1)[1]
    (Path(config.out_dir) / "summary.csv").write_text(summary)
    return status, summary


CAPPED = """
import resource
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
"""


def run_capped(script: str, *args, timeout: float = 30):
    """Run script in a child under a 1 GB address-space cap and a timeout."""
    src = Path(shiftlab.__file__).resolve().parent.parent
    return subprocess.run(
        [sys.executable, "-c", CAPPED + script, *map(str, args)],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True, text=True, timeout=timeout,
    )


def record_spelling(shift) -> list:
    """Make shift record the length of every word list it spells, in call
    order, into the list returned."""
    spelled, enumerate_words = [], shift._enumerate
    shift._enumerate = lambda n: spelled.append(n) or enumerate_words(n)
    return spelled


def forbid_spelling(shift):
    """Make any word list that shift spells fail the test at once: a work
    gate, or a guard for lengths whose words would exhaust memory."""
    shift._enumerate = lambda n: pytest.fail(f"spelled words of length {n}")


def dataclass_twin(cls):
    """The frozen dataclass that the record class cls stands in for: the
    same name, fields, defaults, comparison flags and __post_init__."""
    fields = []
    for name in cls._fields:
        spec = cls.__dict__.get(name, dataclasses.MISSING)
        if isinstance(spec, field):
            spec = dataclasses.field(**spec)
        fields.append((name, object) if spec is dataclasses.MISSING else (name, object, spec))
    # a __post_init__ may read the field names, as Budgets' does through asdict
    namespace = {"_fields": cls._fields}
    if hasattr(cls, "__post_init__"):
        namespace["__post_init__"] = cls.__post_init__
    return dataclasses.make_dataclass(cls.__name__, fields, namespace=namespace, frozen=True)


def argparse_command_line(argv) -> tuple:
    """(command, config, out_dir) of argv as the argparse parser of
    `shiftlab` read it, built without option abbreviations; exits as
    argparse does: status 0 after help, 2 on a malformed line."""
    parser = argparse.ArgumentParser(
        prog="shiftlab",
        description="Deterministic batch runner for shift, code, and group experiments.",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run_p = sub.add_parser("run", help="execute a configuration document", allow_abbrev=False)
    run_p.add_argument("config", help="path to the JSON configuration")
    run_p.add_argument("--out-dir", help="override the configured output directory")
    val_p = sub.add_parser(
        "validate", help="check a configuration without running it", allow_abbrev=False
    )
    val_p.add_argument("config", help="path to the JSON configuration")
    sub.add_parser("list-builtins", help="print the built-in catalog", allow_abbrev=False)
    args = parser.parse_args(argv)
    return args.command, getattr(args, "config", None), getattr(args, "out_dir", None)
