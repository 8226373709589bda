"""The word-index table algebra of shiftlab.blockcode against the string
reference in oracles: same tables, profiles, verdicts and errors."""

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracles
from shiftlab import blockcode
from shiftlab.blockcode import (
    BlockCode,
    IllegalWindowError,
    RangeProfile,
    code_from_table,
    codes_equal,
    compose,
    endomorphism_check,
    inverse_search,
    is_identity,
    minimal_range,
    minimized,
    power,
    range_profile,
    shift_power_code,
    symbol_map_code,
)
from shiftlab.errors import BudgetExceededError
from shiftlab.shiftlang import (
    Alphabet,
    FullShift,
    PeriodicOrbit,
    SftForbidden,
    SubstitutionShift,
)

BINARY = Alphabet.of("01")
FIBONACCI = {"0": "01", "1": "0"}
BUDGETS = st.sampled_from((4, 40, 400, 4000))


@st.composite
def domains(draw):
    """A fresh presentation: a random SFT on at most three symbols, a full
    shift, or one of the built-in substitution and periodic shifts."""
    kind = draw(st.sampled_from(("sft", "sft", "sft", "full", "fibonacci", "periodic")))
    if kind == "fibonacci":
        return SubstitutionShift(BINARY, FIBONACCI)
    if kind == "periodic":
        return PeriodicOrbit(draw(st.sampled_from(("01", "0010111"))))
    symbols = draw(st.sampled_from(("01", "012")))
    if kind == "full":
        return FullShift(Alphabet.of(symbols))
    forbidden = draw(st.lists(st.text(alphabet=symbols, min_size=1, max_size=3), max_size=4))
    try:
        return SftForbidden(Alphabet.of(symbols), forbidden)
    except ValueError:
        assume(False)


@st.composite
def codes(draw, domain):
    """A radius <= 2 table with random outputs (often not an endomorphism
    off the full shifts), or a shift power, which always is one."""
    if draw(st.booleans()):
        return shift_power_code(domain, draw(st.integers(-2, 2)))
    r = draw(st.integers(0, 2))
    words = domain.words_of_length(2 * r + 1)
    symbols = st.sampled_from(domain.alphabet.symbols)
    outs = draw(st.lists(symbols, min_size=len(words), max_size=len(words)))
    return code_from_table(domain, r, dict(zip(words, outs)))


def outcome(fn, *args):
    """What a call returns, as plain data, or the type and text it raises."""
    try:
        value = fn(*args)
    except (BudgetExceededError, IllegalWindowError, ValueError) as exc:
        return type(exc), str(exc)
    if isinstance(value, BlockCode):
        return value.rule.radius, list(value.rule.table.items())
    if isinstance(value, RangeProfile):
        return value.entries, value.truncated_at, value.classification
    return value


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_compose_matches_the_string_reference(data):
    domain = data.draw(domains())
    outer, inner = data.draw(codes(domain)), data.draw(codes(domain))
    budget = data.draw(BUDGETS)
    assert outcome(compose, outer, inner, budget) == outcome(
        oracles.compose_by_slide, outer, inner, budget
    )


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_minimized_matches_the_string_reference(data):
    domain = data.draw(domains())
    # composites give declared radii up to 4 that often shrink
    code = data.draw(codes(domain))
    try:
        code = oracles.compose_by_slide(code, data.draw(codes(domain)))
    except IllegalWindowError:
        pass
    assert minimal_range(code) == oracles.minimal_range_by_scan(code)
    assert outcome(minimized, code) == outcome(oracles.minimized_by_scan, code)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_powers_and_profiles_match_the_string_reference(data):
    domain = data.draw(domains())
    code = data.draw(codes(domain))
    depth, budget = data.draw(st.integers(1, 5)), data.draw(BUDGETS)
    assert outcome(range_profile, code, depth, budget) == outcome(
        oracles.range_profile_by_slide, code, depth, budget
    )
    assert outcome(power, code, depth, budget) == outcome(
        oracles.power_by_slide, code, depth, budget
    )


FINITE_ORDER_DOMAINS = (
    FullShift(Alphabet.of("012")), PeriodicOrbit("0012"), SubstitutionShift(BINARY, FIBONACCI)
)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_finite_order_powers_match_the_string_reference(data):
    # a letter permutation, maybe composed with sigma, its inverse or both:
    # of finite order unless a lone shift is left on an infinite shift, so
    # deep powers are read off a cycle, or end in the budget or an illegal
    # window at the same power as the reference
    domain = data.draw(st.sampled_from(FINITE_ORDER_DOMAINS))
    symbols = domain.alphabet.symbols
    code = symbol_map_code(domain, dict(zip(symbols, data.draw(st.permutations(symbols)))))
    for j in data.draw(st.lists(st.sampled_from((1, -1)), max_size=2)):
        code = compose(code, shift_power_code(domain, j))
    n, budget = data.draw(st.integers(1, 60)), data.draw(BUDGETS)
    assert outcome(power, code, n, budget) == outcome(oracles.power_by_slide, code, n, budget)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_identity_and_equality_match_the_string_reference(data):
    # the shift by j and back is the identity at declared radius 2|j|, so
    # identities and equal pairs come up among composites
    domain = data.draw(domains())
    j = data.draw(st.integers(-1, 1))
    identity = compose(shift_power_code(domain, -j), shift_power_code(domain, j))
    code = data.draw(codes(domain))
    pool = [identity, code, compose(code, identity)]
    try:
        pool.append(compose(code, data.draw(codes(domain))))
    except IllegalWindowError:
        pass
    rules = [oracles.minimized_by_scan(a).rule for a in pool]
    for a, rule in zip(pool, rules):
        assert is_identity(a) == oracles.is_identity_by_scan(a)
        assert [codes_equal(a, b) for b in pool] == [rule == other for other in rules]


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_inverse_search_matches_the_string_reference(data):
    domain = data.draw(domains())
    code = data.draw(codes(domain))
    radius_max, budget = data.draw(st.integers(0, 2)), data.draw(BUDGETS)
    assert outcome(inverse_search, code, radius_max, budget) == outcome(
        oracles.inverse_search_by_slide, code, radius_max, budget
    )


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_endomorphism_check_matches_the_string_reference(data):
    domain = data.draw(domains())
    code = data.draw(codes(domain))
    if not getattr(domain, "forbidden", True):
        # depth 8, the depth of shifts with no forbidden words, is too deep
        # for the reference on the larger full shifts
        assume(domain.count_words(8 + 2 * code.rule.radius) <= 4000)
    assert endomorphism_check(code) == oracles.endomorphism_check_by_slide(code)


# -- work gates ------------------------------------------------------------------

PRESENTATIONS = {
    "full": lambda: FullShift(BINARY),
    "sft": lambda: SftForbidden(BINARY, ["11"]),
    "fibonacci": lambda: SubstitutionShift(BINARY, FIBONACCI),
    "periodic": lambda: PeriodicOrbit("01"),
}


@pytest.mark.parametrize("kind", ["full", "sft"])
def test_range_profile_builds_rows_without_sliding_the_rule(monkeypatch, kind):
    # a row is one successor lookup: the rule is never slid along a window,
    # and no word is ever spelled out, not even the code's own windows
    domain = PRESENTATIONS[kind]()
    slid = []
    monkeypatch.setattr(blockcode, "apply_to_word", lambda *args: slid.append(args))
    spelled = oracles.record_spelling(domain)
    profile = range_profile(shift_power_code(domain, 1), 6)
    assert profile.entries == (1, 2, 3, 4, 5, 6)
    assert slid == []
    assert spelled == []


@pytest.mark.parametrize("kind", PRESENTATIONS)
def test_shift_power_codes_are_read_off_the_word_index(kind):
    # work gate and oracle: the shift by j takes each window's last (j >= 0)
    # or first (j < 0) letter from the word index, spelling no word, and
    # equals the spelled table {w: w[r + j]}
    for j in range(-3, 4):
        domain = PRESENTATIONS[kind]()
        spelled = oracles.record_spelling(domain)
        code = shift_power_code(domain, j)
        assert spelled == []
        want = oracles.shift_power_code_by_table(domain, j)
        assert code.radius == want.radius == abs(j)
        assert code.outputs == want.outputs
        assert code.rule == want.rule


@pytest.mark.parametrize("kind", PRESENTATIONS)
def test_the_algebra_spells_no_word(kind):
    # work gate: codes built by the algebra carry outputs, not spelled
    # tables, so only reading a rule spells, and only its own windows
    domain = PRESENTATIONS[kind]()
    sigma, back = shift_power_code(domain, 1), shift_power_code(domain, -1)
    flip = symbol_map_code(domain, {"0": "1", "1": "0"})
    spelled = oracles.record_spelling(domain)
    cube, there_and_back = power(sigma, 3), compose(back, sigma)
    assert is_identity(minimized(there_and_back)) and minimal_range(there_and_back) == 0
    assert not codes_equal(cube, there_and_back) and codes_equal(cube, power(cube, 1))
    # on the orbit of 01 the shift is the flip
    assert is_identity(compose(flip, sigma)) == (kind == "periodic")
    range_profile(sigma, 5)
    endomorphism_check(flip)
    assert codes_equal(inverse_search(sigma, 1), back)
    assert spelled == []
    assert len(cube.rule.table) == domain.count_words(2 * cube.radius + 1)
    assert spelled == [2 * cube.radius + 1]
