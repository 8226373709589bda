"""Correctness gate: independent checks of a `shiftlab run` output tree.

`check_tree(doc, expect, tree)` returns {run name: reason} for every run
whose output is wrong.  A run fails when its summary verdict is an error,
when it reports a Violation without being marked fabricated, or when a
check below disagrees with its output file.  Checks use `oracle` and the
document alone; an operation or object they have no reference for is
checked only through the summary verdict (and, at the pinned seed, the
byte digest).
"""

from __future__ import annotations

import csv
import io
import math
from fractions import Fraction

import oracle

BUILTIN_SHIFTS = {
    "full-2": {"kind": "full", "alphabet": "01"},
    "golden-mean": {"kind": "sft", "alphabet": "01", "forbidden": ["11"]},
    "fibonacci": {"kind": "substitution", "alphabet": "01", "rules": {"0": "01", "1": "0"}},
    "periodic-01": {"kind": "periodic", "seed": "01"},
}
BUILTIN_GROUPS = {
    "z1": ("free_abelian", 1),
    "z2": ("free_abelian", 2),
    "heisenberg": ("heisenberg", None),
    "bs-2": ("baumslag_solitar", 2),
    "bs-3": ("baumslag_solitar", 3),
}


class Full:
    def __init__(self, alphabet):
        self.alphabet = alphabet
        self.infinite = len(alphabet) >= 2

    def count(self, n):
        return len(self.alphabet) ** n

    def special_count(self, n, side):
        return self.count(n) if self.infinite else 0

    def is_legal(self, word):
        return set(word) <= set(self.alphabet)


class Fibonacci:
    """The Fibonacci shift is Sturmian: P(n) = n + 1."""

    infinite = True

    def count(self, n):
        return n + 1


class Periodic:
    infinite = False

    def __init__(self, seed):
        self.seed = seed

    def count(self, n):
        p = len(self.seed)
        text = self.seed * (n // p + 2)
        return len({text[i : i + n] for i in range(p)})


def language(doc, name):
    """Reference language of a shift, or None when there is none."""
    spec = BUILTIN_SHIFTS.get(name) or doc["shifts"].get(name)
    if spec is None:
        return None
    kind = spec["kind"]
    if kind == "full":
        return Full(spec["alphabet"])
    if kind == "sft":
        return oracle.Sft(spec["alphabet"], spec["forbidden"])
    if kind == "substitution" and spec["rules"] == {"0": "01", "1": "0"}:
        return Fibonacci()
    if kind == "periodic":
        return Periodic(spec["seed"])
    return None


def permutive_side(table: dict):
    """'left' or 'right' when the table permutes the alphabet in that edge
    coordinate for every setting of the others, else None."""
    alphabet = sorted({w[0] for w in table})
    width = len(next(iter(table)))
    for side, edge in (("left", 0), ("right", width - 1)):
        rests = {}
        for w, out in table.items():
            rests.setdefault(w[:edge] + w[edge + 1 :], []).append(out)
        if len(table) == len(alphabet) ** width and all(
            sorted(outs) == alphabet for outs in rests.values()
        ):
            return side
    return None


class Code:
    """What the gate knows about a code: its domain, and, for codes whose
    n-th power has range exactly n * rate, that rate and the edge in which
    the code permutes (None for a pure shift)."""

    def __init__(self, domain, rate=None, side=None, radius=None):
        self.domain = domain
        self.rate = rate
        self.side = side
        self.radius = radius


def resolve_code(doc, name):
    if "/" in name:
        domain, kind = name.split("/", 1)
        if kind in ("shift", "shift_inverse"):
            return Code(domain, 1, None, 1)
        if kind == "flip":
            return Code(domain, 0, None, 0)
        return Code(domain)
    spec = doc["codes"].get(name)
    if spec is None:
        return None
    kind = spec["kind"]
    if kind == "shift_power":
        j = abs(spec["exponent"])
        return Code(spec["domain"], j, None, j)
    if kind == "table" and "table" in spec:
        side = permutive_side(spec["table"])
        radius = (len(next(iter(spec["table"]))) - 1) // 2
        lang = language(doc, spec["domain"])
        if side and isinstance(lang, Full):
            return Code(spec["domain"], radius, side, radius)
        return Code(spec["domain"], radius=radius)
    if kind == "power":
        base = resolve_code(doc, spec["base"])
        if base is not None and base.rate is not None:
            rate = base.rate * spec["exponent"]
            return Code(base.domain, rate, base.side, rate)
    return None


def linear_rate(doc, code):
    """Rate r with range(φⁿ) = r·n, for a permutive code or a shift power
    on an infinite shift; None when the gate cannot tell."""
    if code is None or code.rate is None or code.rate == 0:
        return None
    lang = language(doc, code.domain)
    if lang is None or not lang.infinite:
        return None
    return code.rate


# -- output parsing -------------------------------------------------------------


def _csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], rows[1:]


def _record(text):
    out = {}
    for line in text.splitlines():
        key, sep, value = line.partition(": ")
        if sep and key not in out:
            out[key] = value
    return out


# -- per-operation checks --------------------------------------------------------


def _complexity(doc, expect, run, row, text):
    p = run["params"]
    header, rows = _csv(text)
    if header != ["n", "P", "entropy_estimate"] or len(rows) != p["depth"]:
        return "malformed profile"
    counts = [int(r[1]) for r in rows]
    for n, (count, r) in enumerate(zip(counts, rows), 1):
        if r[2] != repr(math.log(count) / n):
            return f"entropy estimate at n={n} is {r[2]}"
    if any(b < a for a, b in zip(counts, counts[1:])):
        return "P is not nondecreasing"
    lang = language(doc, p["shift"])
    if lang is not None:
        for n, count in enumerate(counts, 1):
            if count != lang.count(n):
                return f"P({n}) = {count}, reference {lang.count(n)}"
    return None


def _morse_hedlund(doc, expect, run, row, text):
    p = run["params"]
    lang = language(doc, p["shift"])
    if lang is None:
        return None
    witness = next((n for n in range(1, p["limit"] + 1) if lang.count(n) <= n), None)
    got = _record(text).get("witness")
    want = "none" if witness is None else str(witness)
    return None if got == want else f"witness {got}, reference {want}"


def _special_words(doc, expect, run, row, text):
    p = run["params"]
    lines = text.splitlines()
    record = _record("\n".join(lines[:3]))
    words = lines[3:]
    if int(record["count"]) != len(words) or len(set(words)) != len(words):
        return "word list does not match its count"
    if any(len(w) != p["length"] for w in words) or words != sorted(words):
        return "words have the wrong length or order"
    lang = language(doc, p["shift"])
    if lang is None or not hasattr(lang, "special_count"):
        return None
    want = lang.special_count(p["length"], p.get("side", "right"))
    if len(words) != want:
        return f"{len(words)} special words, reference {want}"
    if not all(lang.is_legal(w) for w in words):
        return "an illegal word is listed"
    return None


def _expected_profile(doc, code, depth):
    """Entries and truncation power of a code with a linear range."""
    rate = linear_rate(doc, code)
    if rate is None:
        return None
    lang = language(doc, code.domain)
    budget = doc["budgets"]["table_rows"]
    entries = [rate]
    for n in range(2, depth + 1):
        if lang.count(2 * rate * n + 1) > budget:
            return entries, n
        entries.append(rate * n)
    return entries, None


def _range_profile(doc, expect, run, row, text):
    p = run["params"]
    header, rows = _csv(text)
    if header != ["n", "min_range", "ratio"]:
        return "malformed profile"
    for r in rows:
        if r[2] != str(Fraction(int(r[1]), int(r[0]))):
            return f"ratio at n={r[0]} is {r[2]}"
    want = _expected_profile(doc, resolve_code(doc, p["code"]), p["depth"])
    if want is None:
        return None
    entries, truncated = want
    got = [int(r[1]) for r in rows]
    if got != entries:
        return f"ranges {got}, reference {entries}"
    verdict = "ok" if truncated is None else f"partial: table budget reached at power {truncated}"
    if row["verdict"] != verdict:
        return f"verdict {row['verdict']!r}, reference {verdict!r}"
    return None if row["result"] == "LinearLowerBounded" else "linear profile misclassified"


def _minimal_range(doc, expect, run, row, text):
    code = resolve_code(doc, run["params"]["code"])
    if linear_rate(doc, code) is None:
        return None
    got = _record(text).get("minimal_range")
    return None if got == str(code.rate) else f"minimal range {got}, reference {code.rate}"


def _inverse_search(doc, expect, run, row, text):
    code = resolve_code(doc, run["params"]["code"])
    if code is None or code.side is not None or code.rate not in (0, 1):
        return None
    if code.rate and linear_rate(doc, code) is None:
        return None
    got = _record(text).get("inverse_radius")
    return None if got == str(code.rate) else f"inverse radius {got}, reference {code.rate}"


def _endomorphism_check(doc, expect, run, row, text):
    code = resolve_code(doc, run["params"]["code"])
    if code is None or code.rate is None:
        return None
    got = _record(text).get("endomorphism")
    return None if got == "true" else "a shift power or full-shift code must be an endomorphism"


def _rectangles(doc, code, shift, n, k):
    """Reference rectangle count where one is known."""
    lang = language(doc, shift)
    if lang is None:
        return None
    if k == 1:
        return lang.count(n)
    if isinstance(lang, Periodic) and n >= len(lang.seed) - 1:
        # the central n columns already fix the phase of the orbit
        return lang.count(n)
    if code is not None and code.rate == 1 and code.side is None:
        return lang.count(n + k - 1)
    return None


def _rectangle_complexity(doc, expect, run, row, text):
    p = run["params"]
    code = resolve_code(doc, p["code"])
    header, rows = _csv(text)
    if header != ["n", "k", "count"] or len(rows) != p["cols"] * p["rows"]:
        return "malformed sweep"
    counts = {(int(n), int(k)): int(c) for n, k, c in rows}
    for (n, k), c in counts.items():
        want = _rectangles(doc, code, p["shift"], n, k)
        if want is not None and c != want:
            return f"count({n},{k}) = {c}, reference {want}"
        if (n > 1 and c < counts[n - 1, k]) or (k > 1 and c < counts[n, k - 1]):
            return f"count({n},{k}) shrinks"
    return None


def _cyr_kra(doc, expect, run, row, text):
    p = run["params"]
    n, k = p["length"], p["height"]
    record = _record(text)
    count = int(record["patch_count"])
    if int(record["threshold_doubled"]) != 2 * count:
        return "threshold_doubled is not twice the count"
    above = 2 * count > n * k
    if (record["status"] == "AboveThreshold") != above:
        return f"status {record['status']} for {count} patches of {n}x{k}"
    want = _rectangles(doc, resolve_code(doc, p["code"]), p["shift"], n, k)
    if want is not None and count != want:
        return f"{count} patches, reference {want}"
    return None


def _vertical_period(doc, expect, run, row, text):
    p = run["params"]
    lang = language(doc, p["shift"])
    if not isinstance(lang, Periodic) or p["height"] < 2 * len(lang.seed):
        return None
    got = _record(text).get("vertical_period")
    # a code on a periodic orbit acts as a power of the shift there, so
    # every column repeats with a period dividing the orbit's
    ok = got not in (None, "none") and len(lang.seed) % int(got) == 0
    return None if ok else f"vertical period {got} on an orbit of period {len(lang.seed)}"


def _coding_check(doc, expect, run, row, text):
    p = run["params"]
    code = resolve_code(doc, p["code"])
    cells_b = p["cells_b"]
    if code is None or code.radius is None or len(cells_b) != 1 or cells_b[0][1] != 1:
        return None
    col = cells_b[0][0]
    cells_a = {tuple(c) for c in p["cells_a"]}
    light_cone = {(col + i, 0) for i in range(-code.radius, code.radius + 1)}
    if light_cone <= cells_a:
        want = "true"
    elif code.side is not None and all(r == 0 for _, r in cells_a):
        edge = col - code.radius if code.side == "left" else col + code.radius
        if (edge, 0) in cells_a:
            return None
        want = "false"
    else:
        return None
    got = _record(text).get("codes")
    return None if got == want else f"codes {got}, reference {want}"


def group_model(doc, name):
    if name in BUILTIN_GROUPS:
        kind, arg = BUILTIN_GROUPS[name]
    else:
        spec = doc["groups"].get(name, {})
        if "generators" in spec:
            return None
        kind, arg = spec.get("kind"), spec.get("rank", spec.get("base"))
    if kind == "free_abelian":
        return oracle.FreeAbelian(arg)
    if kind == "heisenberg":
        return oracle.Heisenberg()
    if kind == "baumslag_solitar":
        return oracle.Affine(arg)
    return None


def _ball_growth(doc, expect, run, row, text):
    p = run["params"]
    group = group_model(doc, p["group"])
    header, rows = _csv(text)
    sizes = [int(size) for _, size in rows]
    if len(sizes) != p["radius"] + 1:
        return "malformed growth table"
    if isinstance(group, oracle.FreeAbelian):
        want = [oracle.zd_ball_size(group.d, r) for r in range(p["radius"] + 1)]
    elif isinstance(group, oracle.Heisenberg):
        dist = oracle.ball_distances(group, group.gens, p["radius"])
        spheres = [0] * (p["radius"] + 1)
        for d in dist.values():
            spheres[d] += 1
        want = [sum(spheres[: r + 1]) for r in range(p["radius"] + 1)]
    else:
        return None
    return None if sizes == want else "ball sizes differ from the reference"


def _word_length(doc, expect, run, row, text):
    want = expect.get(run["name"])
    if want is None:
        return None
    got = _record(text).get("length")
    return None if got == str(want) else f"length {got}, reference {want}"


def _certifier(group):
    if isinstance(group, oracle.Affine):
        return lambda m: oracle.horner_word(m, group.n), lambda m: (0, Fraction(m))
    if isinstance(group, oracle.Heisenberg):
        return oracle.commutator_word, lambda m: (0, 0, m)
    return None


def _distortion(doc, expect, run, row, text):
    p = run["params"]
    group = group_model(doc, p["group"])
    header, rows = _csv(text)
    if header != ["n", "length", "exact_or_bound"] or len(rows) != p["depth"]:
        return "malformed profile"
    kinds = {r[2] for r in rows}
    if not kinds <= {"exact", "bound", "lower"}:
        return f"unknown entry kinds {sorted(kinds)}"
    values = [int(r[1]) if r[1] else None for r in rows]
    made = _certifier(group) if p["element"] in ("a", "s") else None
    if made is None:
        return None
    word, target = made
    for m in range(1, p["depth"] + 1):
        length = oracle.word_length(word(m))
        if values[m - 1] is None or values[m - 1] > length:
            return f"length of power {m} is {values[m - 1]}, a certificate gives {length}"
    # re-evaluate a spread of certificates, and test subadditivity on
    # every split with a short first part
    for m in sorted({1 << i for i in range(p["depth"].bit_length())} | {p["depth"]}):
        if oracle.evaluate(group, word(m)) != target(m):
            return f"reference certificate for power {m} misses its target"
    for a in range(1, min(20, p["depth"]) + 1):
        for b in range(a, p["depth"] - a + 1):
            if values[a + b - 1] > values[a - 1] + values[b - 1]:
                return f"lengths not subadditive at {a}+{b}"
    return None


def _certificate(doc, expect, run, row, text):
    p = run["params"]
    record = _record(text)
    tokens = oracle.parse_word(record["word"])
    length = oracle.word_length(tokens)
    if record["length"] != str(length) or record.get("verified") != "true":
        return "length or verification line is wrong"
    kind = p["kind"]
    if kind == "bs_horner":
        group, target = oracle.Affine(p["base"]), (0, Fraction(p["m"]))
        bound = oracle.horner_bound(p["m"], p["base"])
    elif kind == "heisenberg_square":
        group, target, bound = oracle.Heisenberg(), (0, 0, p["n"] ** 2), 4 * p["n"]
    else:
        group, target, bound = oracle.Heisenberg(), (0, 0, p["n"]), None
        if length > 16 * (math.isqrt(p["n"]) + 2):
            return f"base-q word of length {length} is not O(sqrt n)"
    if oracle.evaluate(group, tokens) != target:
        return "certificate word does not evaluate to its target"
    if bound is not None and (record.get("length_bound") != str(bound) or length > bound):
        return f"length bound {record.get('length_bound')}, reference {bound}"
    return None


def _growth_formula(doc, expect, run, row, text):
    p = run["params"]
    formula = p["formula"]
    if formula == "bass_guivarch":
        want = sum((k + 1) * r for k, r in enumerate(p["ranks"]))
    elif formula == "min_growth_degree":
        want = p["step"] * (p["step"] + 1) // 2 + 1
    else:
        want = 1
        while (want + 1) * (want + 2) // 2 + 2 < p["complexity_exponent"]:
            want += 1
    got = _record(text).get("value")
    return None if got == str(want) else f"value {got}, reference {want}"


def _audit(doc, expect, run, row, text):
    got = _record(text).get("verdict")
    return None if got == row["verdict"] else f"report verdict {got} differs from the summary"


def _audit_shift_power(doc, expect, run, row, text):
    p = run["params"]
    lang = language(doc, p["shift"])
    if lang is None or not lang.infinite:
        return _audit(doc, expect, run, row, text)
    want = " ".join(str(abs(p["exponent"]) * m) for m in range(1, p["depth"] + 1))
    record = _record(text)
    if record.get("verdict") != "Consistent" or record.get("left") != want:
        return f"ranges {record.get('left')}, reference {want}"
    return None


CHECKS = {
    "complexity": _complexity,
    "morse_hedlund": _morse_hedlund,
    "special_words": _special_words,
    "range_profile": _range_profile,
    "minimal_range": _minimal_range,
    "inverse_search": _inverse_search,
    "endomorphism_check": _endomorphism_check,
    "rectangle_complexity": _rectangle_complexity,
    "cyr_kra": _cyr_kra,
    "vertical_period": _vertical_period,
    "coding_check": _coding_check,
    "ball_growth": _ball_growth,
    "word_length": _word_length,
    "distortion": _distortion,
    "certificate": _certificate,
    "growth_formula": _growth_formula,
    "audit_range_word": _audit,
    "audit_entropy": _audit,
    "audit_polynomial": _audit,
    "audit_shift_power": _audit_shift_power,
}


def summary_rows(tree) -> dict:
    text = tree.get("summary.csv", b"").decode()
    header, rows = _csv(text) if text else ([], [])
    if header != ["name", "operation", "result", "verdict"]:
        return {}
    return {r[0]: dict(zip(header, r)) for r in rows}


def output_of(tree, name):
    for ext in ("csv", "txt"):
        if f"{name}.{ext}" in tree:
            return tree[f"{name}.{ext}"].decode()
    return None


def check_tree(doc, expect, tree) -> dict:
    """{run name: reason} for every run whose output fails the gate."""
    rows = summary_rows(tree)
    failures = {}
    for run in doc["runs"]:
        name = run["name"]
        row = rows.get(name)
        if row is None:
            failures[name] = "missing from summary.csv"
            continue
        if row["verdict"].startswith("error"):
            failures[name] = row["verdict"]
            continue
        if row["verdict"] == "Violation" and not run.get("fabricated"):
            failures[name] = "Violation on non-fabricated data"
            continue
        text = output_of(tree, name)
        check = CHECKS.get(run["operation"])
        if check is None or text is None:
            continue
        try:
            reason = check(doc, expect, run, row, text)
        except (KeyError, ValueError, IndexError, ZeroDivisionError) as exc:
            reason = f"unreadable output: {exc!r}"
        if reason:
            failures[name] = reason
    return failures
