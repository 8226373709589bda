"""Exact algebra of sliding block codes on a presented subshift.

A code is stored extensionally: a radius R and a full table mapping every
legal (2R+1)-word of its domain to an output symbol.  Desk scale makes
this affordable, and it turns every question asked here (composition,
minimal range, inverses, endomorphism checks) into finite table algebra
with no symbolic reasoning.  Composition is written compose(outer, inner)
and applies the inner code first, everywhere in this package.

Table sizes grow exponentially with radius on positive-entropy shifts, so
every table-building entry point takes a row budget and raises
BudgetExceededError instead of thrashing; profile builders turn that into
an explicitly truncated result.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import BudgetExceededError
from .shiftlang import ShiftPresentation

DEFAULT_TABLE_BUDGET = 2_000_000

LINEAR_LOWER_BOUNDED = "LinearLowerBounded"
SUBLINEAR_TREND = "SublinearTrend"


class IllegalWindowError(LookupError):
    """A rule lookup hit a window outside the domain language."""

    def __init__(self, window: str, detail: str = ""):
        self.window = window
        msg = f"window {window!r} is not in the rule's domain language"
        if detail:
            msg += f"; {detail}"
        super().__init__(msg)


@dataclass(frozen=True)
class LocalRule:
    """Radius plus a total output table on legal (2R+1)-words.

    Totality is relative to a domain presentation, so it is enforced by
    BlockCode, which knows the domain.  Instances are value-compared and
    never hashed (the table is a dict).
    """

    radius: int
    table: dict

    def output(self, window: str) -> str:
        try:
            return self.table[window]
        except KeyError:
            raise IllegalWindowError(window) from None


@dataclass(frozen=True)
class BlockCode:
    """A sliding block code presented by its domain and local rule.

    The declared range is the rule's radius; the true (minimal) range can
    be smaller and is computed by minimal_range.  Codomain symbols must
    lie in the domain alphabet: the codes studied here are candidate
    endomorphisms of one shift.
    """

    domain: ShiftPresentation
    rule: LocalRule

    def __post_init__(self):
        r = self.rule.radius
        if r < 0:
            raise ValueError("radius must be nonnegative")
        expected = self.domain.word_set(2 * r + 1)
        keys = set(self.rule.table)
        if keys != expected:
            missing = sorted(expected - keys)[:3]
            extra = sorted(keys - expected)[:3]
            raise ValueError(
                f"rule table must cover exactly the legal {2 * r + 1}-words; "
                f"missing {missing}, extraneous {extra}"
            )
        for w, out in self.rule.table.items():
            if not (isinstance(out, str) and len(out) == 1):
                raise ValueError(f"table output for {w!r} must be a single symbol")
            if not self.domain.alphabet.contains_word(out):
                raise ValueError(f"table output {out!r} for {w!r} is outside the alphabet")

    @property
    def declared_range(self) -> int:
        return self.rule.radius


# -- construction helpers ------------------------------------------------


def code_from_table(domain: ShiftPresentation, radius: int, table: dict) -> BlockCode:
    return BlockCode(domain, LocalRule(radius, dict(table)))


def shift_power_code(domain: ShiftPresentation, j: int) -> BlockCode:
    """The index shift by j as a code of declared radius |j|."""
    r = abs(j)
    table = {w: w[r + j] for w in domain.words_of_length(2 * r + 1)}
    return code_from_table(domain, r, table)


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


def padded_to_radius(code: BlockCode, radius: int) -> BlockCode:
    """Same map, re-tabulated at a larger declared radius."""
    r = code.rule.radius
    if radius < r:
        raise ValueError("padding cannot shrink the radius")
    if radius == r:
        return code
    cut = radius - r
    table = {
        w: code.rule.table[w[cut:-cut]]
        for w in code.domain.words_of_length(2 * radius + 1)
    }
    return code_from_table(code.domain, radius, table)


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


def _check_table_budget(domain: ShiftPresentation, radius: int, budget: int, context: str):
    rows = domain.count_words(2 * radius + 1)
    if rows > budget:
        raise BudgetExceededError("table rows", budget, rows, context)


def compose(
    outer: BlockCode, inner: BlockCode, table_budget: int = DEFAULT_TABLE_BUDGET
) -> BlockCode:
    """The code applying `inner` first, then `outer`.

    Declared radius is the sum; the inner image of each combined window is
    exactly the outer window needed, so one table pass builds the result.
    """
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


def power(code: BlockCode, n: int, table_budget: int = DEFAULT_TABLE_BUDGET) -> BlockCode:
    """n-fold self-composition, minimizing after each step.

    Minimizing intermediates never changes the map and keeps the declared
    radius at the true range, which is what makes powers of range-distorted
    codes affordable.
    """
    if n < 1:
        raise ValueError("power needs n >= 1")
    acc = minimized(code)
    for _ in range(n - 1):
        acc = minimized(compose(acc, code, table_budget))
    return acc


def minimal_range(code: BlockCode) -> int:
    """Least radius at which the rule's output is still well defined.

    Scans radii upward; at radius r' the table factors through the central
    (2r'+1)-window iff all windows sharing a center agree on output.
    """
    r = code.rule.radius
    for shrunk in range(r):
        cut = r - shrunk
        seen: dict[str, str] = {}
        ok = True
        for w, out in code.rule.table.items():
            center = w[cut:-cut]
            prev = seen.get(center)
            if prev is None:
                seen[center] = out
            elif prev != out:
                ok = False
                break
        if ok:
            return shrunk
    return r


def minimized(code: BlockCode) -> BlockCode:
    """Equivalent code re-tabulated at its minimal range.

    Every legal short word is a central window of some longer legal word
    (all legal words extend both ways), so the shrunken table is total.
    """
    r = code.rule.radius
    m = minimal_range(code)
    if m == r:
        return code
    cut = r - m
    table = {}
    for w, out in code.rule.table.items():
        table[w[cut:-cut]] = out
    ordered = {
        w: table[w] for w in code.domain.words_of_length(2 * m + 1)
    }
    return code_from_table(code.domain, m, ordered)


def codes_equal(a: BlockCode, b: BlockCode) -> bool:
    """Semantic equality: same domain and same map."""
    if a.domain != b.domain:
        return False
    am, bm = minimized(a), minimized(b)
    return am.rule == bm.rule


def is_identity(code: BlockCode) -> bool:
    m = minimized(code)
    return m.rule.radius == 0 and all(w == out for w, out in m.rule.table.items())


def endomorphism_check(code: BlockCode, output_length: int | None = None) -> bool:
    """Do legal words map to legal words?

    For an SFT domain, checking outputs up to the longest forbidden length
    is exact (a bi-infinite image avoids all forbidden words iff every
    such factor does, and every factor of the image is the image of a
    legal word).  For other presentations the check at the default depth 8
    is strong evidence, not proof.
    """
    domain = code.domain
    if output_length is None:
        forbidden = getattr(domain, "forbidden", None)
        if forbidden is not None and forbidden:
            output_length = max(len(f) for f in forbidden)
        else:
            output_length = 8
    r = code.rule.radius
    for n in range(1, output_length + 1):
        for w in domain.words_of_length(n + 2 * r):
            if not domain.is_legal(apply_to_word(code, w)):
                return False
    return True


def inverse_search(
    code: BlockCode, radius_max: int, table_budget: int = DEFAULT_TABLE_BUDGET
) -> BlockCode | None:
    """Look for a two-sided inverse code of radius <= radius_max.

    At candidate radius r', agreement of the composite with the identity
    on all (2(r+r')+1)-words forces table[image window] = central input
    letter; a conflict kills the radius, a consistent total table is then
    verified by composing both ways.  None means no inverse at this radius
    bound, not a proof of non-invertibility.
    """
    phi = minimized(code)
    r = phi.rule.radius
    for r_inv in range(radius_max + 1):
        _check_table_budget(phi.domain, r + r_inv, table_budget, "inverse search")
        candidate: dict[str, str] = {}
        ok = True
        for w in phi.domain.words_of_length(2 * (r + r_inv) + 1):
            image = apply_to_word(phi, w)
            letter = w[r + r_inv]
            prev = candidate.get(image)
            if prev is None:
                candidate[image] = letter
            elif prev != letter:
                ok = False
                break
        if not ok:
            continue
        if set(candidate) != phi.domain.word_set(2 * r_inv + 1):
            # some legal window is never an image: the code is not onto
            # at this scale, so no total inverse exists at this radius
            continue
        psi = code_from_table(
            phi.domain,
            r_inv,
            {w: candidate[w] for w in phi.domain.words_of_length(2 * r_inv + 1)},
        )
        if is_identity(compose(psi, phi, table_budget)) and is_identity(
            compose(phi, psi, table_budget)
        ):
            return psi
    return None


def finite_order_witness(
    code: BlockCode, max_power: int, table_budget: int = DEFAULT_TABLE_BUDGET
) -> int | None:
    """Least n <= max_power with code^n the identity, if any."""
    acc = minimized(code)
    for n in range(1, max_power + 1):
        if n > 1:
            acc = minimized(compose(acc, code, table_budget))
        if is_identity(acc):
            return n
    return None


# -- range profiles -------------------------------------------------------


@dataclass(frozen=True)
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
        upper = min(Fraction(v, n) for n, v in enumerate(entries, start=1))
        return cls(entries, upper, _classify_entries(entries), truncated_at)


def _classify_entries(entries) -> str:
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


def range_profile(
    code: BlockCode, max_power: int, table_budget: int = DEFAULT_TABLE_BUDGET
) -> RangeProfile:
    """Minimal ranges of powers 1..max_power, truncating at the budget.

    A truncated profile still reports exact values for every power it
    reached; the first power reuses the code's own table, so at least one
    entry is always present.
    """
    if max_power < 1:
        raise ValueError("profile needs max_power >= 1")
    entries = [minimized(code).rule.radius]
    acc = minimized(code)
    truncated_at = None
    for n in range(2, max_power + 1):
        try:
            acc = minimized(compose(acc, code, table_budget))
        except BudgetExceededError:
            truncated_at = n
            break
        entries.append(acc.rule.radius)
    return RangeProfile.from_entries(entries, truncated_at)
