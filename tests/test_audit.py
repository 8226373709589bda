"""Inequality audits: honest data passes, fabricated data is caught."""

import math
from fractions import Fraction

import pytest

from shiftlab.audit import (
    CONSISTENT,
    NATURAL_LOG_NOTE,
    NOT_APPLICABLE,
    VIOLATION,
    AuditReport,
    entropy_bound_audit,
    polynomial_bound_audit,
    range_vs_wordlength_audit,
    sigma_power_range_audit,
)
from shiftlab.blockcode import (
    LINEAR_LOWER_BOUNDED,
    RangeProfile,
    range_profile,
    shift_power_code,
    symbol_map_code,
)
from shiftlab.errors import BudgetExceededError
from shiftlab.grouplab import (
    BS1nModel,
    DistortionProfile,
    GeneratingSet,
    ProfileEntry,
    WordExpr,
    ZdModel,
    auto_certifier,
    distortion_profile,
)
from shiftlab.shiftlang import (
    Alphabet,
    FullShift,
    PeriodicOrbit,
    SubstitutionShift,
    entropy_profile,
)

BINARY = Alphabet.of("01")


@pytest.fixture(scope="module")
def full2():
    return FullShift(BINARY)


@pytest.fixture(scope="module")
def fibonacci():
    return SubstitutionShift(BINARY, {"0": "01", "1": "0"})


def z_word_profile(depth):
    z1 = ZdModel(1)
    return distortion_profile(z1, GeneratingSet.standard(z1), (1,), depth)


def log_staircase_profile(depth):
    # max(1, ceil(log2 m)) is subadditive, unlike the bare ceiling at m=1
    entries = tuple(max(1, (m - 1).bit_length()) for m in range(1, depth + 1))
    return RangeProfile.from_entries(entries)


def sqrt_staircase_profile(depth):
    entries = tuple(math.isqrt(m - 1) + 1 for m in range(1, depth + 1))
    return RangeProfile.from_entries(entries)


# -- report type ------------------------------------------------------------------


def test_report_invariants():
    with pytest.raises(ValueError):
        AuditReport("x", "Maybe", (), (), ())
    with pytest.raises(ValueError):
        AuditReport("x", CONSISTENT, (1,), (1,), ())  # misaligned
    with pytest.raises(ValueError):
        AuditReport("x", VIOLATION, (1,), (2,), (1,))  # witness missing
    with pytest.raises(ValueError):
        AuditReport("x", CONSISTENT, (1,), (1,), (2,), counterexample=(1, 1, 2))


def test_report_text_inlines_sequences():
    report = AuditReport(
        "demo_inequality",
        VIOLATION,
        (1, 2, 3),
        (1, 99, 3),
        (1, 2, 3),
        counterexample=(2, 99, 2),
        reason="left exceeds right",
        max_generator_range=1,
        notes=("a note",),
    )
    text = report.to_text()
    assert "inequality: demo_inequality" in text
    assert "left: 1 99 3" in text
    assert "counterexample: index=2 left=99 right=2" in text
    assert "max_generator_range: 1" in text
    assert text.endswith("note: a note\n")
    assert not report.consistent
    assert report.violation_index == 2


# -- range vs word length ---------------------------------------------------------


def test_shift_power_ranges_match_word_lengths(full2):
    gens = {
        "shift": range_profile(shift_power_code(full2, 1), 6),
        "shift_inverse": range_profile(shift_power_code(full2, -1), 6),
        "flip": range_profile(symbol_map_code(full2, {"0": "1", "1": "0"}), 6),
    }
    report = range_vs_wordlength_audit(gens, gens["shift"], z_word_profile(6))
    assert report.verdict == CONSISTENT
    assert report.max_generator_range == 1
    assert report.left == report.right == (1, 2, 3, 4, 5, 6)
    assert any("equality" in note for note in report.notes)


def test_zero_range_element_trivially_consistent(full2):
    flip_prof = range_profile(symbol_map_code(full2, {"0": "1", "1": "0"}), 6)
    assert flip_prof.entries == (0,) * 6
    # word lengths of an involution alternate; built by hand since the
    # group-side profiler rejects finite-order elements
    entries = tuple(
        ProfileEntry(m, m % 2, "exact", m % 2) for m in range(1, 7)
    )
    words = DistortionProfile(entries, None, "Inconclusive", 6)
    gens = {"flip": flip_prof}
    report = range_vs_wordlength_audit(gens, flip_prof, words)
    assert report.verdict == CONSISTENT
    assert report.left == (0,) * 6


def test_corrupted_range_entry_flagged_at_first_bad_power(full2):
    sigma = range_profile(shift_power_code(full2, 1), 6)
    corrupted = RangeProfile(
        (1, 99, 3, 4, 5, 6), Fraction(1), sigma.classification
    )
    report = range_vs_wordlength_audit({"shift": sigma}, corrupted, z_word_profile(6))
    assert report.verdict == VIOLATION
    assert report.violation_index == 2
    assert report.counterexample == (2, 99, 2)
    assert "r(g^2)" in report.reason


def test_word_profile_alignment_enforced(full2):
    sigma = range_profile(shift_power_code(full2, 1), 6)
    with pytest.raises(ValueError):
        range_vs_wordlength_audit({"shift": sigma}, sigma, z_word_profile(4))
    with pytest.raises(ValueError):
        range_vs_wordlength_audit({}, sigma, z_word_profile(6))


def test_unknown_word_lengths_are_skipped_not_trusted(full2):
    sigma = range_profile(shift_power_code(full2, 1), 4)
    entries = (
        ProfileEntry(1, 1, "exact", 1),
        ProfileEntry(2, 2, "exact", 2),
        ProfileEntry(3, None, "lower", 3),
        ProfileEntry(4, 4, "bound", 3),
    )
    words = DistortionProfile(entries, None, "Inconclusive", 2)
    report = range_vs_wordlength_audit({"shift": sigma}, sigma, words)
    assert report.verdict == CONSISTENT
    assert report.indices == (1, 2, 4)
    assert any("m = 3" in note and "skipped" in note for note in report.notes)
    assert any("upper bounds" in note for note in report.notes)


def test_logarithmic_word_lengths_carry_the_combined_constant():
    # a in BS(1,2): r(phi^m) <= R*|a^m| <= R*C*log(m), C certified by the fit
    bs2 = BS1nModel(2)
    words = distortion_profile(
        bs2, GeneratingSet.standard(bs2), (0, 1), 16, radius_max=6,
        certifier=auto_certifier(bs2, WordExpr.parse("a")),
    )
    assert words.trend.kind == "logarithmic"
    gens = {"a": RangeProfile.from_entries((1,)), "b": RangeProfile.from_entries((2,))}
    report = range_vs_wordlength_audit(gens, log_staircase_profile(16), words)
    assert report.verdict == CONSISTENT
    assert report.distortion_log_constant == words.trend.constant_global
    assert report.combined_range_constant == 2 * words.trend.constant_global
    assert NATURAL_LOG_NOTE in report.notes


def test_no_measured_word_length_is_not_applicable(full2):
    sigma = range_profile(shift_power_code(full2, 1), 3)
    entries = tuple(ProfileEntry(m, None, "lower", 2) for m in (1, 2, 3))
    words = DistortionProfile(entries, None, "Inconclusive", 1)
    report = range_vs_wordlength_audit({"shift": sigma}, sigma, words)
    assert report.verdict == NOT_APPLICABLE
    assert report.reason == "no power has a measured word length"
    assert report.indices == () and report.max_generator_range == 1


# -- entropy floor ----------------------------------------------------------------


def test_fibonacci_corpus_has_no_applicable_automorphism(fibonacci):
    complexity = entropy_profile(fibonacci, 12)
    for code in (
        shift_power_code(fibonacci, 1),
        shift_power_code(fibonacci, -1),
        shift_power_code(fibonacci, 2),
        symbol_map_code(fibonacci, {"0": "0", "1": "1"}),
    ):
        prof = range_profile(code, 8)
        report = entropy_bound_audit(prof, complexity)
        assert report.verdict == NOT_APPLICABLE
        assert report.reason  # never a silent pass


def test_log_range_on_full_shift_consistent(full2):
    prof = log_staircase_profile(64)
    report = entropy_bound_audit(prof, entropy_profile(full2, 16))
    assert report.verdict == CONSISTENT
    # the all-m constant is attained at m = 5: three letters per log(5)
    assert report.combined_range_constant == pytest.approx(3 / math.log(5))
    threshold = 0.95 / (2 * report.combined_range_constant)
    assert report.right == (pytest.approx(threshold),) * 16
    assert all(abs(v - math.log(2)) < 1e-12 for v in report.left)
    assert any("base e" in note for note in report.notes)


def test_log_range_on_zero_entropy_data_is_violation(fibonacci):
    prof = log_staircase_profile(64)
    report = entropy_bound_audit(prof, entropy_profile(fibonacci, 16))
    assert report.verdict == VIOLATION
    assert report.violation_index == 16
    n, estimate, threshold = report.counterexample
    assert n == 16
    assert estimate == pytest.approx(math.log(17) / 16)
    assert estimate < threshold


def test_finite_order_evidence_gates_entropy_audit(full2):
    flip_prof = range_profile(symbol_map_code(full2, {"0": "1", "1": "0"}), 6)
    report = entropy_bound_audit(flip_prof, entropy_profile(full2, 8))
    assert report.verdict == NOT_APPLICABLE
    assert "finite-order" in report.reason


# -- polynomial complexity floor ---------------------------------------------------


def test_caller_asserted_quadratic_floor_on_full_shift(full2):
    sigma = range_profile(shift_power_code(full2, 1), 6)
    report = polynomial_bound_audit(
        sigma, entropy_profile(full2, 12), 12, root=1, require_sublinear=False
    )
    assert report.verdict == CONSISTENT
    assert min(report.left) == pytest.approx(8 / 9)
    assert any("at n = 3" in note for note in report.notes)


def test_linear_range_rejected_by_sublinearity_gate(full2, fibonacci):
    sigma_full = range_profile(shift_power_code(full2, 1), 6)
    report = polynomial_bound_audit(sigma_full, entropy_profile(full2, 12), 12, root=1)
    assert report.verdict == NOT_APPLICABLE
    assert "positive-slope" in report.reason

    sigma_fib = range_profile(shift_power_code(fibonacci, 1), 6)
    report = polynomial_bound_audit(
        sigma_fib, entropy_profile(fibonacci, 12), 12, root=1
    )
    assert report.verdict == NOT_APPLICABLE


def test_fabricated_sublinear_range_with_low_complexity_violates(fibonacci):
    prof = sqrt_staircase_profile(64)
    complexity = entropy_profile(fibonacci, 40)
    report = polynomial_bound_audit(prof, complexity, 40)
    assert report.verdict == VIOLATION
    assert report.violation_index == 40
    n, ratio, floor = report.counterexample
    assert ratio == pytest.approx(41 / 40**3)
    assert ratio < floor == 1e-3


def test_sqrt_fit_certifies_only_roots_up_to_two(full2):
    prof = sqrt_staircase_profile(64)
    complexity = entropy_profile(full2, 20)
    assert polynomial_bound_audit(prof, complexity, 20).verdict == CONSISTENT
    assert polynomial_bound_audit(prof, complexity, 20, root=2).verdict == CONSISTENT
    report = polynomial_bound_audit(prof, complexity, 20, root=3)
    assert report.verdict == NOT_APPLICABLE
    assert "does not certify" in report.reason


def test_log_fit_accepts_any_explicit_root_but_selects_none(full2):
    prof = log_staircase_profile(64)
    complexity = entropy_profile(full2, 16)
    assert polynomial_bound_audit(prof, complexity, 16, root=2).verdict == CONSISTENT
    report = polynomial_bound_audit(prof, complexity, 16)
    assert report.verdict == NOT_APPLICABLE
    assert "explicitly" in report.reason


def test_loosely_linear_range_is_not_a_sublinear_power(fibonacci):
    # within 10% of a line, yet below 95% of it at odd powers, so the
    # positive-slope floor does not reject it first
    prof = RangeProfile.from_entries((2, 2, 4, 4, 6, 6, 8, 8))
    assert prof.classification != LINEAR_LOWER_BOUNDED
    report = polynomial_bound_audit(prof, entropy_profile(fibonacci, 8), 8)
    assert report.verdict == NOT_APPLICABLE
    assert report.reason == "range profile fits 'linear', not a sublinear power"


def test_polynomial_audit_argument_guards(full2):
    prof = sqrt_staircase_profile(16)
    complexity = entropy_profile(full2, 8)
    with pytest.raises(ValueError):
        polynomial_bound_audit(prof, complexity, 12)  # deeper than measured
    with pytest.raises(ValueError):
        polynomial_bound_audit(prof, complexity, 8, require_sublinear=False)
    with pytest.raises(ValueError):
        polynomial_bound_audit(prof, complexity, 8, root=0)
    flip_prof = range_profile(symbol_map_code(full2, {"0": "1", "1": "0"}), 6)
    report = polynomial_bound_audit(flip_prof, complexity, 8)
    assert report.verdict == NOT_APPLICABLE
    assert "finite-order" in report.reason


# -- shift power range floor -------------------------------------------------------


def test_shift_powers_attain_the_floor_exactly(fibonacci):
    report = sigma_power_range_audit(1, fibonacci, 6)
    assert report.verdict == CONSISTENT
    assert report.left == report.right == (1, 2, 3, 4, 5, 6)
    assert any("equality" in note for note in report.notes)


def test_backward_double_shift_floor(fibonacci):
    report = sigma_power_range_audit(-2, fibonacci, 3)
    assert report.verdict == CONSISTENT
    assert report.left == (2, 4, 6)


def test_full_shift_powers_attain_the_floor(full2):
    report = sigma_power_range_audit(1, full2, 4)
    assert report.verdict == CONSISTENT
    assert report.left == (1, 2, 3, 4)


def test_periodic_orbit_not_applicable():
    report = sigma_power_range_audit(1, PeriodicOrbit("01"), 4)
    assert report.verdict == NOT_APPLICABLE
    assert "periodic" in report.reason


def test_shift_power_table_is_checked_before_it_is_built():
    # its 2**81 rows would exhaust memory, so any enumeration fails at once
    full2 = FullShift(BINARY)
    full2._enumerate = lambda n: pytest.fail(f"enumerated words of length {n}")
    with pytest.raises(BudgetExceededError, match=f"needed {2**81}, limit 2000000"):
        sigma_power_range_audit(40, full2, 1)


def test_shift_exponent_must_be_nonzero(fibonacci):
    with pytest.raises(ValueError):
        sigma_power_range_audit(0, fibonacci, 4)
    with pytest.raises(ValueError):
        sigma_power_range_audit(1, fibonacci, 0)


# -- report text ------------------------------------------------------------------

# to_text() of a Violation and a Consistent report from each audit
GOLDEN_TEXTS = {
    "range-violation": """\
inequality: range_growth_vs_word_length
verdict: Violation
indices: 1 2 3 4 5 6
left: 1 99 3 4 5 6
right: 1 2 3 4 5 6
violation_index: 2
counterexample: index=2 left=99 right=2
reason: r(g^2) = 99 exceeds the word-length bound 2
max_generator_range: 1
""",
    "range-consistent": """\
inequality: range_growth_vs_word_length
verdict: Consistent
indices: 1 2 3 4 5 6
left: 1 2 3 4 5 6
right: 1 2 3 4 5 6
max_generator_range: 1
note: equality holds at every checked power
""",
    "entropy-violation": """\
inequality: entropy_vs_log_range_constant
verdict: Violation
indices: 1 2 3
left: 0.6931471805599453 0.34657359027997264 0.23104906018664842
right: 0.25482766946873253 0.25482766946873253 0.25482766946873253
violation_index: 3
counterexample: index=3 left=0.23104906018664842 right=0.25482766946873253
reason: entropy estimate 0.23104906018664842 at n = 3 falls below the floor 1/(2R) with R = 1.8640048036788355
combined_range_constant: 1.8640048036788355
note: logarithms natural (base e)
note: range constant enforced pointwise over every measured power m >= 2
note: relative tolerance 0.05 on the fitted constant
note: tail-window constant 1.8204784532536746 is smaller; the all-m form is the one enforced
""",
    "entropy-consistent": """\
inequality: entropy_vs_log_range_constant
verdict: Consistent
indices: 1 2
left: 0.6931471805599453 0.34657359027997264
right: 0.25482766946873253 0.25482766946873253
combined_range_constant: 1.8640048036788355
note: logarithms natural (base e)
note: range constant enforced pointwise over every measured power m >= 2
note: relative tolerance 0.05 on the fitted constant
note: tail-window constant 1.8204784532536746 is smaller; the all-m form is the one enforced
note: entropy estimate attains its minimum at n = 2
""",
    "poly-violation": """\
inequality: complexity_vs_polynomial_range
verdict: Violation
indices: 1 2 3 4 5 6 7 8 9 10 11 12 13
left: 2.0 0.25 0.07407407407407407 0.03125 0.016 0.009259259259259259 0.0058309037900874635 0.00390625 0.0027434842249657062 0.002 0.0015026296018031556 0.0011574074074074073 0.0009103322712790169
right: 0.001 0.001 0.001 0.001 0.001 0.001 0.001 0.001 0.001 0.001 0.001 0.001 0.001
violation_index: 13
counterexample: index=13 left=0.0009103322712790169 right=0.001
reason: P(13)/13^3 = 0.0009103322712790169 falls below the floor 0.001
note: minimum P(n)/n^3 = 0.0009103322712790169 attained at n = 13
""",
    "poly-consistent": """\
inequality: complexity_vs_polynomial_range
verdict: Consistent
indices: 1 2 3 4 5 6 7 8 9 10 11 12
left: 2.0 0.25 0.07407407407407407 0.03125 0.016 0.009259259259259259 0.0058309037900874635 0.00390625 0.0027434842249657062 0.002 0.0015026296018031556 0.0011574074074074073
right: 0.001 0.001 0.001 0.001 0.001 0.001 0.001 0.001 0.001 0.001 0.001 0.001
note: minimum P(n)/n^3 = 0.0011574074074074073 attained at n = 12
""",
    "sigma-violation": """\
inequality: shift_power_range_floor
verdict: Violation
indices: 1 2 3 4
left: 1 1 1 1
right: 1 2 3 4
violation_index: 2
counterexample: index=2 left=1 right=2
reason: range 1 of the 2-th power falls below the floor 2
""",
    "sigma-consistent": """\
inequality: shift_power_range_floor
verdict: Consistent
indices: 1 2 3 4
left: 1 2 3 4
right: 1 2 3 4
note: equality holds at every checked power
""",
}


def test_report_texts_are_pinned(full2, monkeypatch):
    sigma = range_profile(shift_power_code(full2, 1), 6)
    corrupted = RangeProfile((1, 99, 3, 4, 5, 6), Fraction(1), sigma.classification)
    orbit = PeriodicOrbit("01")
    log_prof = log_staircase_profile(64)
    sqrt_prof = sqrt_staircase_profile(64)
    reports = {
        "range-violation": range_vs_wordlength_audit(
            {"shift": sigma}, corrupted, z_word_profile(6)
        ),
        "range-consistent": range_vs_wordlength_audit(
            {"shift": sigma}, sigma, z_word_profile(6)
        ),
        "entropy-violation": entropy_bound_audit(log_prof, entropy_profile(orbit, 3)),
        "entropy-consistent": entropy_bound_audit(log_prof, entropy_profile(orbit, 2)),
        "poly-violation": polynomial_bound_audit(
            sqrt_prof, entropy_profile(orbit, 13), 13, root=2
        ),
        "poly-consistent": polynomial_bound_audit(
            sqrt_prof, entropy_profile(orbit, 12), 12, root=2
        ),
        "sigma-consistent": sigma_power_range_audit(1, full2, 4),
    }
    # a flat profile stands in for measured ranges below the floor
    monkeypatch.setattr(
        "shiftlab.blockcode.range_profile",
        lambda code, depth, budget: RangeProfile.from_entries((1,) * depth),
    )
    reports["sigma-violation"] = sigma_power_range_audit(1, full2, 4)
    assert {case: report.to_text() for case, report in reports.items()} == GOLDEN_TEXTS
