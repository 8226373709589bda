"""Consistency audits for the package's proven inequalities.

Each audit takes measured profiles from the other modules, evaluates one
inequality at every measured index, and returns a typed report carrying
the full left/right sequences.  On honest data every audit must come back
Consistent or NotApplicable; a Violation is only possible on fabricated
inputs (the detector tests) or an implementation bug.  The two audits
that fit a range profile load trends when they first fit.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Mapping

from .errors import DEFAULT_TABLE_BUDGET, record

if TYPE_CHECKING:
    from .blockcode import RangeProfile
    from .grouplab import DistortionProfile
    from .shiftlang import ComplexityProfile, ShiftPresentation

CONSISTENT = "Consistent"
VIOLATION = "Violation"
NOT_APPLICABLE = "NotApplicable"

RANGE_VS_WORD_LENGTH = "range_growth_vs_word_length"
ENTROPY_VS_LOG_RANGE = "entropy_vs_log_range_constant"
COMPLEXITY_VS_POLYNOMIAL_RANGE = "complexity_vs_polynomial_range"
SHIFT_POWER_RANGE_FLOOR = "shift_power_range_floor"

DEFAULT_ENTROPY_TOLERANCE = 0.05
DEFAULT_RATIO_FLOOR = 1e-3

NATURAL_LOG_NOTE = "logarithms natural (base e)"
_EQUALITY_NOTE = "equality holds at every checked power"


def _fmt(value) -> str:
    if value is None:
        return "-"
    return str(value)


def _seq(values) -> str:
    if not values:
        return "-"
    return " ".join(_fmt(v) for v in values)


@record
class AuditReport:
    """Outcome of one inequality check over index-aligned sequences.

    left[i] and right[i] are the two sides of the inequality at
    indices[i].  max_generator_range is the largest minimal range over
    the generating set, distortion_log_constant the certified constant
    of a logarithmic word-length fit, and combined_range_constant their
    product (or a directly fitted equivalent), whichever the audit uses.
    Exactly a Violation carries a counterexample (index, left, right), the
    witness of the failed inequality; violation_index is its index.
    """

    inequality: str
    verdict: str
    indices: tuple[int, ...]
    left: tuple
    right: tuple
    counterexample: tuple | None = None
    reason: str = ""
    max_generator_range: int | None = None
    distortion_log_constant: float | None = None
    combined_range_constant: float | None = None
    notes: tuple[str, ...] = ()

    def __post_init__(self):
        if self.verdict not in (CONSISTENT, VIOLATION, NOT_APPLICABLE):
            raise ValueError(f"unknown verdict {self.verdict!r}")
        if len(self.left) != len(self.indices) or len(self.right) != len(self.indices):
            raise ValueError("left/right sequences must align with indices")
        has_witness = self.counterexample is not None
        if (self.verdict == VIOLATION) != has_witness:
            raise ValueError("exactly the Violation verdict carries a counterexample")

    @property
    def consistent(self) -> bool:
        return self.verdict == CONSISTENT

    @property
    def violation_index(self) -> int | None:
        return None if self.counterexample is None else self.counterexample[0]

    def to_text(self) -> str:
        """Structured-text record with the measured sequences inlined."""
        lines = [
            f"inequality: {self.inequality}",
            f"verdict: {self.verdict}",
            f"indices: {_seq(self.indices)}",
            f"left: {_seq(self.left)}",
            f"right: {_seq(self.right)}",
        ]
        if self.counterexample is not None:
            idx, lhs, rhs = self.counterexample
            lines.append(f"violation_index: {idx}")
            lines.append(f"counterexample: index={idx} left={_fmt(lhs)} right={_fmt(rhs)}")
        if self.reason:
            lines.append(f"reason: {self.reason}")
        for name, value in (
            ("max_generator_range", self.max_generator_range),
            ("distortion_log_constant", self.distortion_log_constant),
            ("combined_range_constant", self.combined_range_constant),
        ):
            if value is not None:
                lines.append(f"{name}: {_fmt(value)}")
        lines.extend(f"note: {note}" for note in self.notes)
        return "\n".join(lines) + "\n"


def _not_applicable(inequality: str, reason: str, **fields) -> AuditReport:
    return AuditReport(inequality, NOT_APPLICABLE, (), (), (), reason=reason, **fields)


def _report(
    inequality: str, indices, lefts, rights, witness, reason, notes=(),
    consistent_note: str | None = None, **constants,
) -> AuditReport:
    """The Violation report at witness (index, left, right), with
    reason(*witness) as its reason, else the Consistent report, whose
    notes end with consistent_note when one is given."""
    if witness is None:
        verdict, text = CONSISTENT, ""
        notes = (*notes, consistent_note) if consistent_note else notes
    else:
        verdict, text = VIOLATION, reason(*witness)
    return AuditReport(
        inequality, verdict, tuple(indices), tuple(lefts), tuple(rights),
        counterexample=witness, reason=text, notes=tuple(notes), **constants,
    )


def _finite_order_report(inequality: str, entries) -> AuditReport | None:
    # a power of range 0 is a letter permutation, hence of finite order
    finite_at = next((m for m, value in enumerate(entries, start=1) if value == 0), None)
    if finite_at is None:
        return None
    return _not_applicable(
        inequality,
        f"finite-order evidence: power {finite_at} has range 0 "
        "(a radius-0 power permutes letters)",
    )


def range_vs_wordlength_audit(
    generator_profiles: Mapping[str, RangeProfile],
    element_profile: RangeProfile,
    word_profile: DistortionProfile,
) -> AuditReport:
    """Check r(g^m) <= l(g^m) * max generator range at every measured m.

    generator_profiles holds one range profile per generating-set element;
    the maximum of their first entries is the generator-range constant.
    element_profile measures the powers of the audited element g and
    word_profile its word lengths over the same generating set.  The
    inequality is a theorem for honestly measured pairs, so Consistent is
    the only acceptable verdict on real data.  When the word profile also
    fits a logarithmic trend, the combined constant (product of the two)
    is reported; the entropy audit consumes it.
    """
    if not generator_profiles:
        raise ValueError("need at least one generator range profile")
    gen_range = max(p.entries[0] for p in generator_profiles.values())
    ranges = element_profile.entries
    word_indices = tuple(e.n for e in word_profile.entries)
    if word_indices != tuple(range(1, len(ranges) + 1)):
        raise ValueError(
            f"index sets differ: ranges cover powers 1..{len(ranges)}, "
            f"word lengths cover {word_indices[:1] or '()'}..{word_indices[-1:] or '()'}"
            f" ({len(word_indices)} entries)"
        )

    indices: list[int] = []
    lefts: list[int] = []
    rights: list[int] = []
    skipped: list[int] = []
    bounded: list[int] = []
    witness = None
    for entry, r in zip(word_profile.entries, ranges):
        if entry.value is None:
            skipped.append(entry.n)
            continue
        if entry.kind == "bound":
            bounded.append(entry.n)
        bound = entry.value * gen_range
        indices.append(entry.n)
        lefts.append(r)
        rights.append(bound)
        if r > bound and witness is None:
            witness = (entry.n, r, bound)

    notes = []
    if skipped:
        notes.append(
            "no word-length value at m = %s; those powers were skipped"
            % ", ".join(map(str, skipped))
        )
    if bounded:
        notes.append(
            "word lengths at m = %s are certified upper bounds, so the check "
            "is conservative there" % ", ".join(map(str, bounded))
        )
    log_constant = combined = None
    if word_profile.trend is not None and word_profile.trend.kind == "logarithmic":
        log_constant = word_profile.trend.constant_global
        combined = gen_range * log_constant
        notes.append(NATURAL_LOG_NOTE)

    if not indices:
        return _not_applicable(
            RANGE_VS_WORD_LENGTH,
            "no power has a measured word length",
            max_generator_range=gen_range,
            notes=tuple(notes),
        )
    return _report(
        RANGE_VS_WORD_LENGTH, indices, lefts, rights, witness,
        lambda m, lhs, rhs: f"r(g^{m}) = {lhs} exceeds the word-length bound {rhs}",
        notes, _EQUALITY_NOTE if lefts == rights else None,
        max_generator_range=gen_range,
        distortion_log_constant=log_constant,
        combined_range_constant=combined,
    )


def entropy_bound_audit(
    range_prof: RangeProfile,
    complexity_prof: ComplexityProfile,
) -> AuditReport:
    """Check the entropy floor 1/(2R) against the complexity profile.

    Applies only when the range profile of the automorphism fits R*log(m)
    (natural log) and the automorphism shows no finite-order evidence; the
    fitted all-m constant R then forces every entropy estimate log(P(n))/n
    to sit above (1 - DEFAULT_ENTROPY_TOLERANCE)/(2R).  Zero-entropy
    presentations are expected to reach NotApplicable because no honest
    automorphism on them sustains a logarithmic range profile.
    """
    finite = _finite_order_report(ENTROPY_VS_LOG_RANGE, range_prof.entries)
    if finite is not None:
        return finite
    from .trends import fit_trend

    fit = fit_trend(range_prof.entries)
    if fit.kind != "logarithmic":
        return _not_applicable(
            ENTROPY_VS_LOG_RANGE, f"range profile fits {fit.kind!r}, not logarithmic"
        )

    constant = fit.constant_global
    threshold = (1.0 - DEFAULT_ENTROPY_TOLERANCE) / (2.0 * constant)
    estimates = complexity_prof.entropy_estimates
    count = len(estimates)
    low = min(range(count), key=estimates.__getitem__)
    notes = [
        NATURAL_LOG_NOTE,
        "range constant enforced pointwise over every measured power m >= 2",
        f"relative tolerance {DEFAULT_ENTROPY_TOLERANCE} on the fitted constant",
    ]
    if fit.constant_global > fit.constant_tail * (1 + 1e-9):
        notes.append(
            f"tail-window constant {fit.constant_tail!r} is smaller; "
            "the all-m form is the one enforced"
        )
    witness = None if estimates[low] >= threshold else (low + 1, estimates[low], threshold)
    return _report(
        ENTROPY_VS_LOG_RANGE, range(1, count + 1), estimates, (threshold,) * count, witness,
        lambda n, estimate, _: (
            f"entropy estimate {estimate!r} at n = {n} falls below "
            f"the floor 1/(2R) with R = {constant!r}"
        ),
        notes, f"entropy estimate attains its minimum at n = {low + 1}",
        combined_range_constant=constant,
    )


def polynomial_bound_audit(
    range_prof: RangeProfile,
    complexity_prof: ComplexityProfile,
    depth: int,
    *,
    root: int | None = None,
    require_sublinear: bool = True,
) -> AuditReport:
    """Check min P(n)/n^(root+1) >= DEFAULT_RATIO_FLOOR for n = 1..depth.

    A range profile growing like n^(1/root) forces complexity to grow at
    least like n^(root+1); the liminf itself is untestable, so a positive
    floor with the minimizing index reported is checked instead.  With
    require_sublinear (the default) the hypothesis is verified against the
    fitted trend: profiles bounded below by a positive-slope line are
    rejected, a fitted root must be at least the requested one, and a
    logarithmic fit is accepted for any explicit root.  Disabling the gate
    asserts the hypothesis on the caller's authority and demands an
    explicit root; the conclusion is then checked numerically as stated.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    if depth > len(complexity_prof.values):
        raise ValueError(
            f"complexity profile covers n <= {len(complexity_prof.values)}, "
            f"the audit needs n <= {depth}"
        )
    if root is not None and root < 1:
        raise ValueError("root must be >= 1")

    finite = _finite_order_report(COMPLEXITY_VS_POLYNOMIAL_RANGE, range_prof.entries)
    if finite is not None:
        return finite
    if require_sublinear:
        from .blockcode import LINEAR_LOWER_BOUNDED
        from .trends import fit_trend

        if range_prof.classification == LINEAR_LOWER_BOUNDED:
            return _not_applicable(
                COMPLEXITY_VS_POLYNOMIAL_RANGE,
                "range profile is bounded below by a positive-slope line; "
                "the sublinear hypothesis fails",
            )
        fit = fit_trend(range_prof.entries)
        if fit.kind == "polynomial" and (root is None or fit.root >= root):
            if root is None:
                root = fit.root
        elif fit.kind == "logarithmic" and root is not None:
            pass  # logarithmic growth sits below every polynomial root
        else:
            if fit.kind == "polynomial":
                reason = (
                    f"fitted growth n^(1/{fit.root}) does not certify "
                    f"the requested O(n^(1/{root}))"
                )
            elif fit.kind == "logarithmic":
                reason = "logarithmic fit selects no root; pass one explicitly"
            else:
                reason = f"range profile fits {fit.kind!r}, not a sublinear power"
            return _not_applicable(COMPLEXITY_VS_POLYNOMIAL_RANGE, reason)
    elif root is None:
        raise ValueError("an explicit root is required when the gate is disabled")

    exponent = root + 1
    ratios = tuple(
        p / n**exponent
        for n, p in zip(range(1, depth + 1), complexity_prof.values[:depth])
    )
    low = min(range(depth), key=ratios.__getitem__)
    floor = DEFAULT_RATIO_FLOOR
    return _report(
        COMPLEXITY_VS_POLYNOMIAL_RANGE, range(1, depth + 1), ratios, (floor,) * depth,
        None if ratios[low] >= floor else (low + 1, ratios[low], floor),
        lambda n, ratio, _: (
            f"P({n})/{n}^{exponent} = {ratio!r} falls below the floor {floor!r}"
        ),
        (f"minimum P(n)/n^{exponent} = {ratios[low]!r} attained at n = {low + 1}",),
    )


def sigma_power_range_audit(
    j: int,
    domain: ShiftPresentation,
    depth: int,
    table_budget: int = DEFAULT_TABLE_BUDGET,
) -> AuditReport:
    """Check minimal_range((shift^j)^m) >= |j|*m for m = 1..depth.

    The floor holds on every infinite presentation and equality is the
    expected outcome.  Presentations certified eventually periodic by the
    low-complexity test are out of scope and report NotApplicable.
    """
    from .blockcode import check_words, power, range_profile, shift_power_code
    from .shiftlang import morse_hedlund_test

    if j == 0:
        raise ValueError("the shift exponent must be nonzero")
    if depth < 1:
        raise ValueError("depth must be >= 1")
    probe = morse_hedlund_test(domain, max(4, abs(j) * depth + 1))
    if probe.certifies_periodic:
        return _not_applicable(
            SHIFT_POWER_RANGE_FLOOR,
            f"presentation is eventually periodic: P({probe.witness}) <= {probe.witness}",
        )

    check_words(domain, 2 * abs(j) + 1, table_budget, "table rows", "shift power audit")
    base = shift_power_code(domain, j)
    profile = range_profile(base, depth, table_budget)
    if profile.truncated_at is not None:
        # raises the budget error of the first power out of reach
        power(base, profile.truncated_at, table_budget)
    indices = range(1, depth + 1)
    lefts = profile.entries
    rights = tuple(abs(j) * m for m in indices)
    witness = next(
        ((m, lhs, rhs) for m, lhs, rhs in zip(indices, lefts, rights) if lhs < rhs), None
    )
    return _report(
        SHIFT_POWER_RANGE_FLOOR, indices, lefts, rights, witness,
        lambda m, lhs, rhs: f"range {lhs} of the {m}-th power falls below the floor {rhs}",
        consistent_note=_EQUALITY_NOTE if lefts == rights else None,
    )
