"""Exact algebra of sliding block codes on a presented subshift.

A code is a radius R and its outputs: the alphabet index of its output on
each legal (2R+1)-word of its domain, by window number in the domain's
word index (shiftlang.WordIndex).  The algebra (composition, powers,
minimal range, inverses, endomorphism checks) reads and writes these
lists and spells no word: the image of a window under a code is one
successor step from the image of its prefix, so each row costs O(1)
whatever the radius.  `rule.table`, the window -> symbol mapping, is
spelled on first read.  Tables arriving from outside are validated once,
by BlockCode; outputs built here are total by construction and skip that
check.
Composition is written compose(outer, inner) and applies the inner code
first, everywhere in this package.

Table sizes grow exponentially with radius on positive-entropy shifts, so
every table-building entry point takes a row budget and raises
BudgetExceededError instead of thrashing; profile builders turn that into
an explicitly truncated result.
"""

from __future__ import annotations

from functools import cached_property
from typing import TYPE_CHECKING

from .errors import DEFAULT_TABLE_BUDGET, BudgetExceededError, record
from .trends import linear_floor

if TYPE_CHECKING:
    from fractions import Fraction

    from .shiftlang import ShiftPresentation

LINEAR_LOWER_BOUNDED = "LinearLowerBounded"
SUBLINEAR_TREND = "SublinearTrend"


class IllegalWindowError(LookupError):
    """A rule lookup hit a window outside the domain language."""

    def __init__(self, window: str, detail: str):
        self.window = window
        super().__init__(f"window {window!r} is not in the rule's domain language; {detail}")


@record
class LocalRule:
    """Radius plus a total output table on legal (2R+1)-words.

    Totality is relative to a domain presentation, so it is enforced by
    BlockCode, which knows the domain.  Instances are value-compared and
    never hashed (the table is a dict).
    """

    radius: int
    table: dict


class BlockCode:
    """A sliding block code presented by its domain, radius and outputs.

    The declared range is the radius; the true (minimal) range can be
    smaller and is computed by minimal_range.  Codomain symbols must lie
    in the domain alphabet: the codes studied here are candidate
    endomorphisms of one shift.  BlockCode(domain, rule) checks the rule
    once and keeps it; a code the algebra builds spells it on first read.
    """

    def __init__(self, domain: ShiftPresentation, rule: LocalRule):
        r, table = rule.radius, rule.table
        if r < 0:
            raise ValueError("radius must be nonnegative")
        words = domain.words_of_length(2 * r + 1)
        expected, keys = set(words), set(table)
        if keys != expected:
            missing = sorted(expected - keys)[:3]
            extra = sorted(keys - expected)[:3]
            raise ValueError(
                f"rule table must cover exactly the legal {2 * r + 1}-words; "
                f"missing {missing}, extraneous {extra}"
            )
        rank = domain.alphabet._index
        for w, out in table.items():
            if not (isinstance(out, str) and len(out) == 1):
                raise ValueError(f"table output for {w!r} must be a single symbol")
            if out not in rank:
                raise ValueError(f"table output {out!r} for {w!r} is outside the alphabet")
        self.domain, self.radius, self.rule = domain, r, rule
        self.outputs = [rank[table[w]] for w in words]

    @cached_property
    def rule(self) -> LocalRule:
        words = self.domain.words_of_length(2 * self.radius + 1)
        outputs = map(self.domain.alphabet.symbols.__getitem__, self.outputs)
        return LocalRule(self.radius, dict(zip(words, outputs)))

    @cached_property
    def derived(self) -> dict:
        """Results computed from this code and kept as long as it lives, as
        its domain keeps its word indexes: range profiles under
        ("range_profile", max_power, budget) and patch families under
        ("patches", n, k, budget).  Only successes are kept, so a failing
        computation runs again and raises the same error."""
        return {}


def _code(domain: ShiftPresentation, radius: int, outputs: list) -> BlockCode:
    """A code on outputs built here: total by construction, so unchecked."""
    code = object.__new__(BlockCode)
    code.domain, code.radius, code.outputs = domain, radius, outputs
    return code


def _letters(domain: ShiftPresentation, n: int, i: int) -> list:
    """The alphabet index of letter i of each legal n-word, in word-index
    order: the last letters of the (i+1)-words, carried up by prefixes."""
    letters = list(domain.word_index(i + 1).last)
    for m in range(i + 2, n + 1):
        letters = list(map(letters.__getitem__, domain.word_index(m).prefix))
    return letters


# -- construction helpers ------------------------------------------------


def code_from_table(domain: ShiftPresentation, radius: int, table: dict) -> BlockCode:
    return BlockCode(domain, LocalRule(radius, dict(table)))


def shift_power_code(domain: ShiftPresentation, j: int) -> BlockCode:
    """The index shift by j as a code of declared radius |j|: a window's last
    letter for j >= 0, else its first, both read by number (_letters)."""
    r = abs(j)
    return _code(domain, r, _letters(domain, 2 * r + 1, 2 * r if j >= 0 else 0))


def symbol_map_code(domain: ShiftPresentation, mapping: dict) -> BlockCode:
    """Radius-0 code applying a per-symbol substitution."""
    table = {}
    for a in domain.words_of_length(1):
        if a not in mapping:
            raise ValueError(f"symbol map misses legal symbol {a!r}")
        table[a] = mapping[a]
    return code_from_table(domain, 0, table)


def identity_code(domain: ShiftPresentation) -> BlockCode:
    return symbol_map_code(domain, {a: a for a in domain.words_of_length(1)})


# -- core operations ------------------------------------------------------


def apply_to_word(code: BlockCode, word: str) -> str:
    """Slide the rule along the word; output is 2R letters shorter."""
    r = code.rule.radius
    width = 2 * r + 1
    if len(word) < width:
        raise ValueError(
            f"word of length {len(word)} is shorter than the rule window {width}"
        )
    table = code.rule.table
    out = []
    for i in range(len(word) - width + 1):
        w = word[i : i + width]
        try:
            out.append(table[w])
        except KeyError:
            raise IllegalWindowError(w, f"at offset {i} of {word!r}") from None
    return "".join(out)


def check_words(domain: ShiftPresentation, length: int, budget: int, kind: str, context: str):
    """Raise BudgetExceededError(kind, budget, count, context) when the
    domain has more than `budget` legal words of this length: the one
    budget check in front of every table, word list and patch family."""
    count = domain.count_words(length)
    if count > budget:
        raise BudgetExceededError(kind, budget, count, context)


class _Images:
    """The images of the legal words of each length under one code.

    For words of length L >= W = 2R+1, out[i] is the code's output on the
    last W-window of the i-th word, and img[i] numbers the word's image
    among the words of length L - W + 1, or is that length's sink when the
    image is illegal.  The image of a word is the image of its prefix
    followed by one output, and the output on its last window is that of
    its suffix, so each length costs two lookups a word.  Lengths are kept
    as they are built: a profile composes with one code at every power.
    """

    def __init__(self, code: BlockCode):
        self.code, self.domain = code, code.domain
        self.width = 2 * code.radius + 1
        out = code.outputs
        letters = self.domain.word_index(1).succ
        self.levels = [(out, [letters[a] for a in out])]

    def of_length(self, length: int) -> list:
        domain, k, levels = self.domain, self.domain.alphabet.size, self.levels
        while len(levels) <= length - self.width:
            out, img = levels[-1]
            words = domain.word_index(self.width + len(levels))
            succ = domain.word_index(len(levels) + 1).succ
            out = list(map(out.__getitem__, words.suffix))
            levels.append((out, [succ[img[p] * k + a] for p, a in zip(words.prefix, out)]))
        return levels[length - self.width][1]


def _compose(outer_radius: int, outer_outputs: list, images: _Images, table_budget: int):
    """(radius, outputs) of the outer table applied after the images' code."""
    domain = images.domain
    r = outer_radius + images.width // 2
    check_words(domain, 2 * r + 1, table_budget, "table rows", "compose")
    img = images.of_length(2 * r + 1)
    sink = len(outer_outputs)
    if sink in img:
        # name the image of the first such window as sliding the rule does
        word = domain.words_of_length(2 * r + 1)[img.index(sink)]
        raise IllegalWindowError(
            apply_to_word(images.code, word), "inner code's image leaves the domain language"
        )
    return r, list(map(outer_outputs.__getitem__, img))


def _shrink(domain: ShiftPresentation, radius: int, outputs: list):
    """(m, outputs at radius m) for the least radius m the table factors
    through, its central (2m+1)-window determining the output.

    Factoring through the central window is upward-closed in the radius,
    so the scan runs down and the first radius that fails ends it; on a
    table that does not shrink that is one pass, left at its first
    conflict.  Every legal short word is a central window of some longer
    legal word (all legal words extend both ways), so the shrunken table
    is total.
    """
    while radius:
        centers = domain.word_index(2 * radius).prefix
        smaller = [None] * domain.word_index(2 * radius - 1).count
        for s, out in zip(domain.word_index(2 * radius + 1).suffix, outputs):
            seen = smaller[centers[s]]
            if seen is None:
                smaller[centers[s]] = out
            elif seen != out:
                return radius, outputs
        radius, outputs = radius - 1, smaller
    return 0, outputs


def _powers(code: BlockCode, table_budget: int):
    """(minimal range, outputs) of code, code^2, ..., each minimized.

    Minimizing intermediates never changes the map and keeps the declared
    radius at the true range, which is what makes powers of range-distorted
    codes affordable.
    """
    domain, images = code.domain, _Images(code)
    r, outs = _shrink(domain, code.radius, code.outputs)
    while True:
        yield r, outs
        r, outs = _shrink(domain, *_compose(r, outs, images, table_budget))


def compose(
    outer: BlockCode, inner: BlockCode, table_budget: int = DEFAULT_TABLE_BUDGET
) -> BlockCode:
    """The code applying `inner` first, then `outer`.

    Declared radius is the sum; the inner image of each combined window is
    exactly the outer window needed, so one table pass builds the result.
    """
    if outer.domain != inner.domain:
        raise ValueError("composition requires codes on the same presentation")
    r, outs = _compose(outer.radius, outer.outputs, _Images(inner), table_budget)
    return _code(outer.domain, r, outs)


def power(code: BlockCode, n: int, table_budget: int = DEFAULT_TABLE_BUDGET) -> BlockCode:
    """n-fold self-composition, minimizing after each step.

    Each step is a function of the one before, so from the first repeat on
    the steps are periodic.  Brent's cycle search compares each step with
    the one saved at the last power of two; at a repeat, power i equals
    power `mark`, and the answer is read off the cycle.  So the powers of
    a code of finite order cost a few times its order in steps, whatever n.
    """
    if n < 1:
        raise ValueError("power needs n >= 1")
    steps, mark = _powers(code, table_budget), 1
    step = saved = next(steps)
    for i, step in zip(range(2, n + 1), steps):
        if step == saved:
            return power(code, mark + (n - mark) % (i - mark), table_budget)
        if i & (i - 1) == 0:
            mark, saved = i, step
    return _code(code.domain, *step)


def minimal_range(code: BlockCode) -> int:
    """Least radius at which the rule's output is still well defined."""
    return _shrink(code.domain, code.radius, code.outputs)[0]


def minimized(code: BlockCode) -> BlockCode:
    """Equivalent code re-tabulated at its minimal range."""
    m, outs = _shrink(code.domain, code.radius, code.outputs)
    return code if m == code.radius else _code(code.domain, m, outs)


def codes_equal(a: BlockCode, b: BlockCode) -> bool:
    """Semantic equality: same domain and same map."""
    if a.domain != b.domain:
        return False
    am, bm = minimized(a), minimized(b)
    return (am.radius, am.outputs) == (bm.radius, bm.outputs)


def is_identity(code: BlockCode) -> bool:
    m = minimized(code)
    return m.radius == 0 and m.outputs == m.domain.word_index(1).last


def endomorphism_check(code: BlockCode) -> bool:
    """Do legal words map to legal words?

    For an SFT domain, checking outputs up to the longest forbidden length
    is exact (a bi-infinite image avoids all forbidden words iff every
    such factor does, and every factor of the image is the image of a
    legal word).  For other presentations the check at depth 8 is strong
    evidence, not proof.  Every legal word extends to the right,
    and an illegal image makes the images of its extensions illegal, so
    checking the longest outputs checks them all.
    """
    domain = code.domain
    forbidden = getattr(domain, "forbidden", None)
    length = max(map(len, forbidden)) if forbidden else 8
    img = _Images(code).of_length(length + 2 * code.radius)
    return domain.word_index(length).count not in img


def inverse_search(
    code: BlockCode, radius_max: int, table_budget: int = DEFAULT_TABLE_BUDGET
) -> BlockCode | None:
    """Look for a two-sided inverse code of radius <= radius_max.

    At candidate radius r', agreement of the composite with the identity
    on all (2(r+r')+1)-words forces table[image window] = central input
    letter; a conflict kills the radius.  A consistent total table makes
    psi after phi the identity by construction, so only phi after psi is
    then composed and checked.  None means no inverse at this radius
    bound, not a proof of non-invertibility.
    """
    phi = minimized(code)
    domain, r = phi.domain, phi.radius
    images = _Images(phi)
    for r_inv in range(radius_max + 1):
        h = r + r_inv
        check_words(domain, 2 * h + 1, table_budget, "table rows", "inverse search")
        count = domain.word_index(2 * r_inv + 1).count
        table = [None] * (count + 1)  # the last slot collects illegal images
        for j, a in zip(images.of_length(2 * h + 1), _letters(domain, 2 * h + 1, h)):
            if table[j] is None:
                table[j] = a
            elif table[j] != a:
                break
        else:
            # a total inverse needs every legal window, and only those, as an image
            if table.pop() is not None or None in table:
                continue
            psi = _code(domain, r_inv, table)
            if is_identity(compose(phi, psi, table_budget)):
                return psi
    return None


# -- range profiles -------------------------------------------------------


@record
class RangeProfile:
    """Minimal ranges of successive powers, with growth verdicts.

    entries[i] is the minimal range of the (i+1)-st power.  The ratio
    entries[n]/n is monotone-infimum-bounded by subadditivity, so the
    minimum ratio is an exact upper bound for the asymptotic range;
    it is kept as a Fraction because several contracts need it exact.
    truncated_at records the first power whose table outgrew the budget,
    or None for a complete profile.

    from_entries enforces the subadditivity law that every honestly
    measured profile obeys; the bare constructor checks only shape, so
    deliberately corrupted profiles for audit detector tests stay
    constructible.
    """

    entries: tuple[int, ...]
    asymptotic_upper: Fraction
    classification: str
    truncated_at: int | None = None

    def __post_init__(self):
        from fractions import Fraction

        if not self.entries:
            raise ValueError("profile needs at least one entry")
        best = min(Fraction(v, n) for n, v in enumerate(self.entries, start=1))
        if best != self.asymptotic_upper:
            raise ValueError("asymptotic_upper must be the minimum entry/index ratio")

    @classmethod
    def from_entries(cls, entries, truncated_at=None) -> "RangeProfile":
        entries = tuple(entries)
        if not entries:
            raise ValueError("profile needs at least one entry")
        k = len(entries)
        for n in range(1, k + 1):
            for m in range(1, k - n + 1):
                if entries[n + m - 1] > entries[n - 1] + entries[m - 1]:
                    raise ValueError(
                        f"range of power {n + m} exceeds powers {n} + {m}: not subadditive"
                    )
        return cls._measured(entries, truncated_at)

    @classmethod
    def _measured(cls, entries: tuple, truncated_at=None) -> "RangeProfile":
        """The profile of entries known subadditive, as exact minimal ranges are."""
        from fractions import Fraction

        upper = min(Fraction(v, n) for n, v in enumerate(entries, start=1))
        # trends.linear_floor decides the tail; all-zero finite-order
        # profiles count as a sublinear trend
        verdict = LINEAR_LOWER_BOUNDED if linear_floor(entries) else SUBLINEAR_TREND
        return cls(entries, upper, verdict, truncated_at)


def range_profile(
    code: BlockCode, max_power: int, table_budget: int = DEFAULT_TABLE_BUDGET
) -> RangeProfile:
    """Minimal ranges of powers 1..max_power, truncating at the budget.

    A truncated profile still reports exact values for every power it
    reached; the first power reuses the code's own table, so at least one
    entry is always present.  The profile is kept in `code.derived`.
    """
    if max_power < 1:
        raise ValueError("profile needs max_power >= 1")
    key = ("range_profile", max_power, table_budget)
    if key not in code.derived:
        entries, truncated_at = [], None
        powers = _powers(code, table_budget)
        try:
            for _ in range(max_power):
                entries.append(next(powers)[0])
        except BudgetExceededError:
            truncated_at = len(entries) + 1
        code.derived[key] = RangeProfile._measured(tuple(entries), truncated_at)
    return code.derived[key]
