"""Spacetime patches, rectangle complexity, coding, and periodicity checks."""

import tracemalloc

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from oracles import build_patches_by_slide, record_spelling, rectangle_sweep

from shiftlab import blockcode, cli, spacetime
from shiftlab.blockcode import (
    IllegalWindowError,
    apply_to_word,
    code_from_table,
    compose,
    identity_code,
    shift_power_code,
    symbol_map_code,
)
from shiftlab.config import Budgets
from shiftlab.errors import BudgetExceededError
from shiftlab.shiftlang import (
    Alphabet,
    FullShift,
    PeriodicOrbit,
    SftForbidden,
    SubstitutionShift,
    complexity,
)
from shiftlab.spacetime import (
    SpacetimePatch,
    build_patches,
    coding_check,
    cyr_kra_audit,
    horizontal_segment,
    rectangle_counts,
    uniform_vertical_period,
)

BINARY = Alphabet.of("01")


@pytest.fixture(scope="module")
def full2():
    return FullShift(BINARY)


@pytest.fixture(scope="module")
def fibonacci():
    return SubstitutionShift(BINARY, {"0": "01", "1": "0"})


@pytest.fixture(scope="module")
def orbit01():
    return PeriodicOrbit("01")


def flip(domain):
    return symbol_map_code(domain, {"0": "1", "1": "0"})


# -- patch construction ------------------------------------------------------


def test_patch_shape_validation():
    with pytest.raises(ValueError):
        SpacetimePatch(2, 2, ("01",))
    with pytest.raises(ValueError):
        SpacetimePatch(2, 2, ("01", "0"))


@pytest.mark.parametrize(
    "width, height, rows, ok",
    [(0, 0, (), True), (3, 0, (), True), (2, 1, ("01",), True), (2, 2, ("01", "011"), False),
     (1, 2, ("0",), False), (2, 2, "01", False), ("2", 1, ("01",), False), (1.0, 1, ("0",), True)],
)
def test_patch_shape_check_accepts_exactly_matching_rows(width, height, rows, ok):
    if ok:
        assert SpacetimePatch(width, height, rows).rows == rows
    else:
        with pytest.raises(ValueError):
            SpacetimePatch(width, height, rows)


def test_flip_patches_on_full_shift(full2):
    patches = build_patches(full2, flip(full2), 2, 3)
    assert len(patches) == 4
    for p in patches:
        assert p.rows[1] == p.rows[0].translate(str.maketrans("01", "10"))
        assert p.rows[2] == p.rows[0]


def test_shift_patches_on_fibonacci(fibonacci):
    patches = build_patches(fibonacci, shift_power_code(fibonacci, 1), 3, 2)
    assert len(patches) == complexity(fibonacci, 4) == 5
    for p in patches:
        # row 1 is row 0 advanced by one cell; they overlap on two columns
        assert p.rows[1][:2] == p.rows[0][1:]


def test_periodic_flip_patches(orbit01):
    patches = build_patches(orbit01, flip(orbit01), 2, 2)
    assert len(patches) == 2


def test_patch_provenance_ignored_in_identity(full2):
    a = SpacetimePatch(1, 1, ("0",), source_word="x")
    b = SpacetimePatch(1, 1, ("0",), source_word="y")
    assert a == b and hash(a) == hash(b)
    assert a.as_text() == "0"


def test_build_patches_argument_guards(full2, fibonacci):
    for n, k in ((0, 2), (2, 0)):
        with pytest.raises(ValueError, match="patch dimensions must be positive"):
            build_patches(full2, flip(full2), n, k)
    with pytest.raises(ValueError, match="code is not defined on the given presentation"):
        build_patches(fibonacci, flip(full2), 2, 2)


def test_build_patches_budget(full2):
    with pytest.raises(BudgetExceededError):
        build_patches(full2, shift_power_code(full2, 1), 3, 12, word_budget=100)


def test_families_and_profiles_are_kept_on_their_code(full2):
    # runs sharing a code share its family and profile; a failing build is
    # not kept, so it runs again and fails with the same text
    code = shift_power_code(full2, 1)
    family, profile = build_patches(full2, code, 3, 2), blockcode.range_profile(code, 4)
    assert build_patches(full2, code, 3, 2) is family
    assert blockcode.range_profile(code, 4) is profile
    errors = []
    for _ in range(2):
        with pytest.raises(BudgetExceededError) as error:
            build_patches(full2, code, 3, 12, word_budget=100)
        errors.append(str(error.value))
    assert errors[0] == errors[1] and len(code.derived) == 2


def test_rectangle_complexity_matches_1d(full2, fibonacci, orbit01):
    for domain in (full2, fibonacci, orbit01):
        sigma = shift_power_code(domain, 1)
        for n in range(1, 7):
            assert rectangle_counts(domain, sigma, n, 1)[n, 1] == complexity(domain, n)


def test_rectangle_complexity_shift_diagonals(fibonacci):
    # width-n, height-k windows of the shift spacetime are length n+k-1 words
    for n in range(1, 5):
        for k in range(1, 5):
            expected = complexity(fibonacci, n + k - 1)
            got = rectangle_counts(fibonacci, shift_power_code(fibonacci, 1), n, k)[n, k]
            assert got == expected == n + k


def test_rectangle_complexity_flip_powers(full2):
    for n in range(1, 6):
        for k in range(1, 5):
            assert rectangle_counts(full2, flip(full2), n, k)[n, k] == 2**n


def test_rectangle_complexity_monotone(fibonacci):
    sigma = shift_power_code(fibonacci, 1)
    vals = {
        (n, k): rectangle_counts(fibonacci, sigma, n, k)[n, k]
        for n in range(1, 6)
        for k in range(1, 5)
    }
    for n in range(1, 5):
        for k in range(1, 4):
            assert vals[(n + 1, k)] >= vals[(n, k)]
            assert vals[(n, k + 1)] >= vals[(n, k)]


# -- differential tests against slide-by-slide construction --------------------


def _outcome(fn, *args):
    try:
        return fn(*args)
    except (IllegalWindowError, BudgetExceededError) as exc:
        return type(exc), str(exc)


def _patch_family(domain, code, n, k, budget):
    patches = build_patches(domain, code, n, k, budget)
    assert all(p.width == n and p.height == k for p in patches)
    return [(p.rows, p.source_word) for p in patches]


def _codes(domain, max_radius):
    """Random tables of radius <= max_radius, most of them not endomorphisms,
    and shift powers, which are."""
    symbols = domain.alphabet.symbols
    tables = st.integers(0, max_radius).flatmap(
        lambda r: st.fixed_dictionaries(
            {w: st.sampled_from(symbols) for w in domain.words_of_length(2 * r + 1)}
        ).map(lambda table: code_from_table(domain, r, table))
    )
    shifts = st.integers(-max_radius, max_radius).map(lambda j: shift_power_code(domain, j))
    return tables | shifts


def _assert_matches_slide(domain, code, n, k, budget):
    slide = _outcome(build_patches_by_slide, domain, code, n, k, budget)
    assert _outcome(_patch_family, domain, code, n, k, budget) == slide
    # rectangle_counts fails exactly when the sweep does, with what the
    # n x k family raises; otherwise it matches the sweep count for count
    got = _outcome(rectangle_counts, domain, code, n, k, budget)
    want = _outcome(rectangle_sweep, domain, code, n, k, budget)
    if isinstance(want, dict):
        assert got == want
        assert list(got) == list(want)
    else:
        assert isinstance(slide, tuple)
        assert got == slide


BUDGETS = st.integers(1, 300) | st.just(5000)


@settings(max_examples=40, deadline=None)
@given(st.data(), st.integers(1, 4), st.integers(1, 5), BUDGETS)
def test_full_shift_patches_match_slide(full2, data, n, k, budget):
    code = data.draw(_codes(full2, 2))
    _assert_matches_slide(full2, code, n, k, budget)


@st.composite
def _sft_codes(draw):
    symbols = draw(st.sampled_from(("01", "012")))
    forbidden = draw(st.lists(st.text(symbols, min_size=1, max_size=3), max_size=3))
    try:
        domain = SftForbidden(Alphabet.of(symbols), forbidden)
    except ValueError:
        assume(False)
    return domain, draw(_codes(domain, 1))


GOLDEN = SftForbidden(BINARY, ["11"])
LEFT_FLIP = {"000": "1", "001": "1", "010": "1", "100": "0", "101": "0"}


@settings(max_examples=40, deadline=None)
@given(_sft_codes(), st.integers(1, 4), st.integers(1, 3), BUDGETS)
# the top row over 00000 is 111: the family is slid whole and returns it
@example((GOLDEN, code_from_table(GOLDEN, 1, LEFT_FLIP)), 3, 2, 5000)
def test_sft_patches_match_slide(case, n, k, budget):
    _assert_matches_slide(*case, n, k, budget)


@settings(max_examples=40, deadline=None)
@given(st.data(), st.integers(1, 8), st.integers(1, 5), st.integers(1, 40) | st.just(5000))
def test_fibonacci_patches_match_slide(fibonacci, data, n, k, budget):
    code = data.draw(_codes(fibonacci, 2))
    _assert_matches_slide(fibonacci, code, n, k, budget)


THUE_MORSE = SubstitutionShift(BINARY, {"0": "01", "1": "10"})
ORBITS = tuple(PeriodicOrbit(seed) for seed in ("01", "001", "0112", "01011"))


@settings(max_examples=60, deadline=None)
@given(
    st.data(), st.sampled_from((THUE_MORSE, *ORBITS)), st.integers(1, 8), st.integers(1, 5),
    st.integers(1, 40) | st.just(5000),
)
def test_thue_morse_and_periodic_patches_match_slide(data, domain, n, k, budget):
    code = data.draw(_codes(domain, 2))
    _assert_matches_slide(domain, code, n, k, budget)


@pytest.mark.parametrize("n, k, budget", [(3, 3, 5000), (2, 4, 5000), (3, 3, 20), (3, 3, 10)])
def test_non_endomorphism_raises_like_slide(n, k, budget):
    # the image of 00000 is 111, which leaves the golden mean shift
    code = code_from_table(GOLDEN, 1, LEFT_FLIP)
    with pytest.raises(IllegalWindowError) as slide:
        build_patches_by_slide(GOLDEN, code, n, k)
    assert _outcome(_patch_family, GOLDEN, code, n, k, 5000) == (
        IllegalWindowError, str(slide.value)
    )
    assert _outcome(rectangle_counts, GOLDEN, code, n, k, budget) == _outcome(
        build_patches_by_slide, GOLDEN, code, n, k, budget
    )


def test_first_word_to_leave_the_language_names_the_error():
    # in sorted order 000000100 leaves the language at iterate 3 and the
    # later 000000101 at iterate 1; sliding meets the earlier word first
    domain = SftForbidden(BINARY, ["111"])
    table = {"000": "0", "001": "1", "010": "1", "011": "0", "100": "0", "101": "1", "110": "1"}
    code = code_from_table(domain, 1, table)
    iterate = "000000100"
    for _ in range(3):
        iterate = apply_to_word(code, iterate)
    assert "111" in iterate and "111" in apply_to_word(code, "000000101")
    with pytest.raises(IllegalWindowError) as slide:
        build_patches_by_slide(domain, code, 1, 5)
    assert repr(iterate) in str(slide.value)
    assert _outcome(_patch_family, domain, code, 1, 5, 5000) == (
        IllegalWindowError, str(slide.value)
    )


# right-permutive: each setting of the first two cells permutes the third
PERMUTIVE = {
    "000": "1", "001": "0", "010": "0", "011": "1", "100": "1", "101": "0", "110": "1", "111": "0",
}


def test_family_builds_on_word_numbers(monkeypatch):
    # work gate: no word is slid through the rule, and only the generating
    # length, 6 + 2 * 3 * radius, is spelled
    domain = FullShift(BINARY)
    code = code_from_table(domain, 1, PERMUTIVE)

    def no_slide(*args):
        raise AssertionError("apply_to_word called")

    monkeypatch.setattr(spacetime, "apply_to_word", no_slide)
    monkeypatch.setattr(blockcode, "apply_to_word", no_slide)
    lengths = record_spelling(domain)
    family = build_patches(domain, code, 6, 4)
    assert lengths == [12]
    assert len(family) == 1216
    monkeypatch.undo()
    assert [(p.rows, p.source_word) for p in family] == build_patches_by_slide(domain, code, 6, 4)


def test_long_periodic_family_builds_without_recursion(orbit01):
    # generating words longer than the interpreter's default recursion limit
    family = _patch_family(orbit01, flip(orbit01), 1600, 3, 100)
    assert len(family[0][1]) > 1500
    assert family == build_patches_by_slide(orbit01, flip(orbit01), 1600, 3, 100)


def test_wide_family_memory_stays_near_the_family_size():
    # 301 generating words of length 302: keeping the image of every prefix
    # would hold about 25 MB, the prefixes at least 300 long under 1 MB
    domain = SubstitutionShift(BINARY, {"0": "01", "1": "0"})
    sigma = shift_power_code(domain, 1)
    domain.words_of_length(302)
    tracemalloc.start()
    try:
        build_patches(domain, sigma, 300, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5_000_000


def test_rectangle_sweep_builds_one_family(monkeypatch):
    # work gate: a 16 x 10 sweep builds the 16 x 10 family and enumerates
    # only its generating length, 16 + 2 * 9 * radius, not one per (n, k)
    domain = SubstitutionShift(BINARY, {"0": "01", "1": "0"})
    sigma = shift_power_code(domain, 1)
    shapes, build = [], spacetime.build_patches

    def counting_build(domain, code, n, k, *args):
        shapes.append((n, k))
        return build(domain, code, n, k, *args)

    monkeypatch.setattr(spacetime, "build_patches", counting_build)
    lengths = record_spelling(domain)
    run = cli.OPERATIONS["rectangle_complexity"]
    result = run(Budgets(), shift=domain, code=sigma, cols=16, rows=10)
    assert shapes == [(16, 10)]
    assert lengths == [16 + 2 * 9]
    assert result.key == str(complexity(domain, 16 + 10 - 1))


# -- coding relation ------------------------------------------------------------


def test_horizontal_segment_codes_cell_above(fibonacci):
    sigma = shift_power_code(fibonacci, 1)
    for k in range(1, 5):
        patches = build_patches(fibonacci, sigma, 2 * k + 1, k + 1)
        assert coding_check(patches, horizontal_segment(k), [(0, k)])


def test_shortened_segment_fails_to_code(fibonacci):
    # the forward-shift spacetime propagates along one diagonal, so the
    # essential cell of the segment sits at the right end; the backward
    # shift mirrors it.  Between the two, losing either end cell breaks
    # the coding, and losing both breaks it for each.
    k = 3
    target = [(0, k)]
    full = horizontal_segment(k)
    fwd = build_patches(fibonacci, shift_power_code(fibonacci, 1), 2 * k + 1, k + 1)
    assert not coding_check(fwd, full[:-1], target)  # right cell dropped
    assert coding_check(fwd, full[1:], target)       # left cell is redundant here
    assert not coding_check(fwd, full[1:-1], target)
    back = build_patches(fibonacci, shift_power_code(fibonacci, -1), 2 * k + 1, k + 1)
    assert coding_check(back, full, target)
    assert not coding_check(back, full[1:], target)  # left cell dropped
    assert not coding_check(back, full[1:-1], target)


def test_flip_origin_codes_whole_column(full2):
    patches = build_patches(full2, flip(full2), 3, 4)
    for j in range(1, 4):
        assert coding_check(patches, [(0, 0)], [(0, j)])


def test_shift_origin_does_not_code_above(full2):
    patches = build_patches(full2, shift_power_code(full2, 1), 3, 2)
    assert not coding_check(patches, [(0, 0)], [(0, 1)])


def test_coding_transport(fibonacci):
    # if A codes B and A union B codes C then A codes C
    sigma = shift_power_code(fibonacci, 1)
    patches = build_patches(fibonacci, sigma, 5, 3)
    a = horizontal_segment(2)
    b = [(0, 1)]
    c = [(0, 2)]
    a_codes_b = coding_check(patches, a, b)
    ab_codes_c = coding_check(patches, tuple(a) + tuple(b), c)
    assert a_codes_b and ab_codes_c
    assert coding_check(patches, a, c)


def test_coding_check_bounds_and_emptiness(full2):
    patches = build_patches(full2, flip(full2), 2, 2)
    with pytest.raises(ValueError):
        coding_check(patches, [(5, 0)], [(0, 0)])
    with pytest.raises(ValueError):
        coding_check(patches, [(0, 0)], [(0, 7)])
    with pytest.raises(ValueError):
        coding_check((), [(0, 0)], [(0, 0)])


# -- rectangle-count periodicity audit --------------------------------------------


def test_cyr_kra_periodic_flip(orbit01):
    patches = build_patches(orbit01, flip(orbit01), 4, 4)
    verdict = cyr_kra_audit(patches, 4, 4)
    assert verdict.status == "BelowThreshold"
    assert verdict.found and verdict.vector == (2, 0)
    assert verdict.patch_count == 2


def test_cyr_kra_small_periodic_case(orbit01):
    patches = build_patches(orbit01, flip(orbit01), 2, 2)
    verdict = cyr_kra_audit(patches, 2, 2)
    assert verdict.status == "BelowThreshold"
    assert verdict.vector == (-1, 1)  # a diagonal period of the checkerboard


def test_cyr_kra_above_threshold(full2):
    patches = build_patches(full2, flip(full2), 3, 3)
    verdict = cyr_kra_audit(patches, 3, 3)
    assert verdict.status == "AboveThreshold"
    assert verdict.patch_count == 8
    assert not verdict.found


def test_cyr_kra_below_threshold_without_a_vector():
    # 2 patches of 2x2 meet the threshold 2*2/2, and every vector moves the
    # lone 1 of one patch or the other onto a 0
    patches = [SpacetimePatch(2, 2, ("00", "01")), SpacetimePatch(2, 2, ("00", "10"))]
    verdict = cyr_kra_audit(patches, 2, 2)
    assert verdict.status == "BelowThresholdNoVectorFound"
    assert not verdict.found
    assert (verdict.patch_count, verdict.threshold_doubled) == (2, 4)


def test_cyr_kra_fibonacci_shift_diagonal(fibonacci):
    # P(7) = 8 = 4*4/2 sits exactly at the threshold and the shift's
    # diagonal propagation is the periodicity vector
    patches = build_patches(fibonacci, shift_power_code(fibonacci, 1), 4, 4)
    verdict = cyr_kra_audit(patches, 4, 4)
    assert verdict.patch_count == 8
    assert verdict.status == "BelowThreshold"
    assert verdict.vector == (-1, 1)


def test_cyr_kra_vector_really_holds(fibonacci):
    patches = build_patches(fibonacci, shift_power_code(fibonacci, 1), 4, 4)
    verdict = cyr_kra_audit(patches, 4, 4)
    di, dj = verdict.vector
    for p in patches:
        for y in range(4):
            for x in range(4):
                if 0 <= x + di < 4 and 0 <= y + dj < 4:
                    assert p.cell(x + di, y + dj) == p.cell(x, y)


# -- vertical periods ---------------------------------------------------------------


def test_vertical_period_flip(full2):
    patches = build_patches(full2, flip(full2), 2, 4)
    assert uniform_vertical_period(patches) == 2


def test_vertical_period_identity(full2):
    patches = build_patches(full2, identity_code(full2), 2, 4)
    assert uniform_vertical_period(patches) == 1


def test_vertical_period_mixed_synthetic():
    # columns of periods 2 and 3 in one synthetic family force lcm 6
    col_a = "010101"  # period 2
    col_b = "011011"  # period 3
    patch = SpacetimePatch(2, 6, tuple(a + b for a, b in zip(col_a, col_b)))
    assert uniform_vertical_period([patch]) == 6


def test_vertical_period_unconcluded_when_window_short(full2):
    # the shift spacetime has aperiodic columns; nothing is certified
    patches = build_patches(full2, shift_power_code(full2, 1), 2, 4)
    assert uniform_vertical_period(patches) is None


def test_vertical_period_rejects_empty():
    with pytest.raises(ValueError):
        uniform_vertical_period(())


# -- structural properties -------------------------------------------------------------


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=1, max_value=4), st.integers(min_value=1, max_value=4))
def test_patch_count_bounded_by_words(n, k):
    domain = SftForbidden(BINARY, ["11"])
    sigma = shift_power_code(domain, 1)
    patches = build_patches(domain, sigma, n, k)
    # patches are images of generating words, never more numerous
    assert len(patches) <= complexity(domain, n + 2 * (k - 1))
    for p in patches:
        assert p.width == n and p.height == k
        for row in p.rows:
            assert row in domain.words_of_length(n)


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=1, max_value=3))
def test_coding_reflexive_and_monotone(k):
    domain = FullShift(BINARY)
    patches = build_patches(domain, flip(domain), 3, k)
    cells = [(0, 0), (1, 0)]
    assert coding_check(patches, cells, cells)
    assert coding_check(patches, cells, [(0, 0)])
