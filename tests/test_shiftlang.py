"""Language-level behavior of the four presentation kinds."""

import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from shiftlab import shiftlang
from shiftlab.blockcode import range_profile, shift_power_code
from shiftlab.shiftlang import (
    Alphabet,
    FullShift,
    PeriodicOrbit,
    SftForbidden,
    SubstitutionShift,
    ComplexityProfile,
    complexity,
    entropy_profile,
    morse_hedlund_test,
    special_words,
)

from oracles import (
    fibonacci_rules,
    golden_mean_words,
    periodic_words,
    run_capped,
    sft_words_brute,
    special_words_by_extension,
    submultiplicative_failure,
    substitution_factors,
    substitution_words,
    word_key_tuple,
)

BINARY = Alphabet.of("01")


@pytest.fixture(scope="module")
def golden():
    return SftForbidden(BINARY, ["11"])


@pytest.fixture(scope="module")
def fibonacci():
    return SubstitutionShift(BINARY, fibonacci_rules())


# -- alphabet ------------------------------------------------------------


def test_alphabet_rejects_duplicates_and_multichar():
    with pytest.raises(ValueError):
        Alphabet.of("00")
    with pytest.raises(ValueError):
        Alphabet(("ab",))
    with pytest.raises(ValueError):
        Alphabet(())


def test_word_key_orders_by_declared_order():
    # declared order b < a, hence "bb" < "ba" < "ab" < "aa"
    letters = Alphabet.of("ba")
    words = ["aa", "ab", "ba", "bb"]
    assert sorted(words, key=letters.word_key) == ["bb", "ba", "ab", "aa"]


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_word_key_sorts_like_index_tuples(data):
    symbols = "".join(data.draw(st.permutations("abcd")))
    letters = Alphabet.of(symbols)
    words = data.draw(st.lists(st.text(alphabet=symbols, max_size=6), max_size=12))
    words += [w[:i] for w in words for i in range(len(w))]
    assert sorted(words, key=letters.word_key) == sorted(
        words, key=lambda w: word_key_tuple(symbols, w)
    )


def test_contains_word():
    letters = Alphabet.of("ab")
    assert letters.contains_word("")
    assert letters.contains_word("abba")
    assert not letters.contains_word("abc")
    assert not letters.contains_word("ca")


# -- full shift ----------------------------------------------------------


def test_full_shift_counts_and_membership():
    x = FullShift(BINARY)
    assert complexity(x, 5) == 32
    assert x.count_words(20) == 2**20
    assert "0101010" in x.words_of_length(7)
    assert "012" not in x.words_of_length(3)
    assert x.words_of_length(0) == ("",)


def test_full_shift_words_sorted():
    x = FullShift(Alphabet.of("abc"))
    ws = x.words_of_length(2)
    assert ws == tuple(sorted(ws))
    assert len(ws) == 9


# -- golden mean SFT -----------------------------------------------------


def test_golden_mean_complexity_matches_frozen_values(golden):
    # Fibonacci numbers: P(n) = F(n+2)
    assert [complexity(golden, n) for n in range(1, 7)] == [2, 3, 5, 8, 13, 21]


def test_golden_mean_against_brute_force(golden):
    for n in range(1, 9):
        assert set(golden.words_of_length(n)) == golden_mean_words(n)


def test_golden_mean_path_count_agrees_with_enumeration(golden):
    for n in range(1, 12):
        assert golden.count_words(n) == len(golden.words_of_length(n))


def test_sft_three_letter_forbidden_words_frozen():
    x = SftForbidden(BINARY, ["11"])
    assert set(x.words_of_length(3)) == {"000", "001", "010", "100", "101"}


def test_sft_legality_is_two_sided_extendability():
    # '01' is forbidden, so any 0 must never be followed by 1; words ending
    # in 1 must continue with 1s forever, which is fine, but '10' forces the
    # suffix 0^inf, also fine.  All of 00, 10, 11 survive; 01 does not.
    x = SftForbidden(BINARY, ["01"])
    assert set(x.words_of_length(2)) == {"00", "10", "11"}


def test_sft_trimming_removes_dead_ends():
    # forbidding 00 and 11 leaves only the alternating orbit
    x = SftForbidden(BINARY, ["00", "11"])
    assert set(x.words_of_length(4)) == {"0101", "1010"}
    assert complexity(x, 9) == 2


def test_sft_empty_presentation_rejected():
    with pytest.raises(ValueError):
        SftForbidden(BINARY, ["0", "1"])
    with pytest.raises(ValueError):
        SftForbidden(BINARY, ["00", "01", "11"])


def test_sft_single_letter_forbidden_reduces_alphabet():
    x = SftForbidden(Alphabet.of("abc"), ["b"])
    assert set(x.words_of_length(2)) == {"aa", "ac", "ca", "cc"}


def test_sft_mixed_length_forbidden_against_brute_force():
    x = SftForbidden(BINARY, ["111", "00"])
    for n in range(1, 8):
        assert set(x.words_of_length(n)) == sft_words_brute("01", ["111", "00"], n)


def test_sft_rejects_garbage_forbidden_words():
    with pytest.raises(ValueError):
        SftForbidden(BINARY, [""])
    with pytest.raises(ValueError):
        SftForbidden(BINARY, ["12"])


# -- substitution shifts ---------------------------------------------------


def test_fibonacci_complexity_is_n_plus_one(fibonacci):
    for n in range(1, 13):
        assert complexity(fibonacci, n) == n + 1


def test_fibonacci_against_brute_force(fibonacci):
    for n in range(1, 11):
        assert set(fibonacci.words_of_length(n)) == substitution_words(fibonacci_rules(), n)


def test_fibonacci_unique_right_special_word(fibonacci):
    for n in range(1, 9):
        assert len(special_words(fibonacci, n, "right")) == 1


def test_thue_morse_complexity_values():
    x = SubstitutionShift(BINARY, {"0": "01", "1": "10"})
    # classical counts for the doubling rule's shift
    for n in range(1, 9):
        assert set(x.words_of_length(n)) == substitution_words({"0": "01", "1": "10"}, n)
    assert [complexity(x, n) for n in range(1, 7)] == [2, 4, 6, 10, 12, 16]


def test_substitution_primitivity_enforced():
    with pytest.raises(ValueError):
        SubstitutionShift(BINARY, {"0": "00", "1": "11"})
    with pytest.raises(ValueError):
        SubstitutionShift(BINARY, {"0": "0", "1": "10"})


def test_substitution_validates_rule_shape():
    with pytest.raises(ValueError):
        SubstitutionShift(BINARY, {"0": "01"})
    with pytest.raises(ValueError):
        SubstitutionShift(BINARY, {"0": "01", "1": ""})
    with pytest.raises(ValueError):
        SubstitutionShift(BINARY, {"0": "01", "1": "2"})


def test_substitution_primitivity_exponent_recorded(fibonacci):
    assert 1 <= fibonacci.primitivity_exponent <= 4


def test_substitution_that_never_grows_rejected():
    # its images never lengthen, so no inflation reaches any length
    with pytest.raises(ValueError, match="never grows: every image is a single letter"):
        SubstitutionShift(Alphabet.of("0"), {"0": "0"})


def test_one_letter_growing_substitution():
    x = SubstitutionShift(Alphabet.of("0"), {"0": "00"})
    assert [x.count_words(n) for n in (1, 7, 3)] == [1, 1, 1]
    assert x.words_of_length(5) == ("00000",)
    assert morse_hedlund_test(x, 4).witness == 1


# -- substitution languages off one suffix automaton ---------------------------------


@st.composite
def primitive_substitutions(draw):
    """Rules on two or three letters, images 1-3 letters long and not all of
    one length, that pass the primitivity check.  Under a third of the
    drawn rules do, so up to 50 are drawn (filtering them out would trip
    Hypothesis' health check), and the Fibonacci rule stands in after
    that."""
    symbols = draw(st.sampled_from(("01", "012")))
    for _ in range(50):
        images = st.text(alphabet=symbols, min_size=1, max_size=3)
        rules = {a: draw(images) for a in symbols}
        if len({len(w) for w in rules.values()}) > 1:
            try:
                SubstitutionShift(Alphabet.of(symbols), rules)
                return rules
            except ValueError:
                pass
    return fibonacci_rules()


def _sorted_factors(alphabet, rules, n):
    return sorted(substitution_factors(rules, n), key=alphabet.word_key) if n else [""]


def _assert_language(x, n, words, shorter):
    """x counts, indexes and spells length n as the sorted lists `words`
    of its n-words and `shorter` of its (n-1)-words."""
    symbols, k = x.alphabet.symbols, x.alphabet.size
    assert x.count_words(n) == len(words)
    index = x.word_index(n)
    number = {w: i for i, w in enumerate(shorter)}
    assert index.count == len(words)
    assert index.prefix == [number[w[:-1]] for w in words]
    assert index.suffix == [number[w[1:]] for w in words]
    assert index.last == [symbols.index(w[-1]) for w in words]
    number = {w: i for i, w in enumerate(words)}
    expected = [number.get(u + a, len(words)) for u in shorter for a in symbols]
    assert index.succ == expected + [len(words)] * k
    assert x.words_of_length(n) == tuple(words)


@settings(max_examples=60, deadline=None)
@given(primitive_substitutions(), st.lists(st.integers(1, 40), min_size=1, max_size=4))
def test_substitution_language_matches_inflation(rules, lengths):
    # lengths out of order: deeper requests rebuild the automaton, and
    # shorter ones are then answered from the rebuilt one
    alphabet = Alphabet.of(sorted(rules))
    x = SubstitutionShift(alphabet, rules)
    for n in lengths:
        words = _sorted_factors(alphabet, rules, n)
        _assert_language(x, n, words, _sorted_factors(alphabet, rules, n - 1))


@settings(max_examples=40, deadline=None)
@given(primitive_substitutions())
def test_deepest_inflation_has_the_same_short_factors(rules):
    # the automaton is built once at the deepest length N asked for; its
    # n-factors for n <= N are those of the least inflation that suffices
    for n in range(1, 41):
        assert substitution_factors(rules, n, floor=40) == substitution_factors(rules, n)
    for n in range(1, 21):
        assert substitution_factors(fibonacci_rules(), n, floor=40) == substitution_words(
            fibonacci_rules(), n
        )


def _count_automata(monkeypatch):
    built = []
    automaton = shiftlang._suffix_automaton

    def counting(text):
        built.append(len(text))
        return automaton(text)

    monkeypatch.setattr(shiftlang, "_suffix_automaton", counting)
    return built


def test_deep_profile_builds_few_automata_and_spells_nothing(monkeypatch):
    # work gate: depths double, so a profile to depth 400 builds at most
    # ceil(log2(400)) + 1 automata, and counting never spells a word
    built = _count_automata(monkeypatch)
    x = SubstitutionShift(BINARY, fibonacci_rules())
    profile = entropy_profile(x, 400)
    assert profile.values == tuple(range(2, 402))
    assert len(built) <= math.ceil(math.log2(400)) + 1
    assert not x._word_cache


def test_deep_range_profile_does_not_inflate_per_length(monkeypatch):
    # r(sigma^n) = n needs words of length 2n + 1 up to 401: a handful of
    # automata, and only the code's own table length is spelled
    built = _count_automata(monkeypatch)
    x = SubstitutionShift(BINARY, fibonacci_rules())
    profile = range_profile(shift_power_code(x, 1), 200)
    assert profile.entries == tuple(range(1, 201))
    assert len(built) <= math.ceil(math.log2(401)) + 1
    assert set(x._word_cache) == {3}


# -- periodic orbits ---------------------------------------------------------


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(("01", "012")).flatmap(
    lambda symbols: st.text(alphabet=symbols, min_size=1, max_size=8)), st.data())
def test_periodic_language_matches_the_orbit(seed, data):
    # lengths out of order up to three periods past the period: a deeper
    # request rebuilds the automaton, and a spelling that comes first at a
    # new depth must slice the rebuilt text
    x = PeriodicOrbit(seed)
    lengths = st.integers(1, 3 * x.period + 5)
    sorted_words = lambda n: sorted(periodic_words(seed, n), key=x.alphabet.word_key)
    for n, spell_first in data.draw(st.lists(st.tuples(lengths, st.booleans()), min_size=1,
                                             max_size=4)):
        if spell_first:
            assert x.words_of_length(n) == tuple(sorted_words(n))
        _assert_language(x, n, sorted_words(n), sorted_words(n - 1))


def test_periodic_index_builds_one_automaton_and_spells_nothing(monkeypatch):
    # work gate: the 1600-letter index of a period-2 orbit is read off a
    # few automata, deepened once for the length asked, and spells no word
    built = _count_automata(monkeypatch)
    x = PeriodicOrbit("01")
    index = x.word_index(1600)
    assert (index.count, index.prefix, index.suffix) == (2, [0, 1], [1, 0])
    assert len(built) <= math.ceil(math.log2(1600)) + 1
    assert not x._word_cache


def test_periodic_climb_rebuilds_only_past_the_text_reach(monkeypatch):
    # work gate: the two-copy text of a period-50 seed holds every factor
    # of lengths 2..51, so counting up to 51 builds two automata, not one
    # per doubling of the depth asked for
    built = _count_automata(monkeypatch)
    x = PeriodicOrbit("0" * 49 + "1")
    assert [x.count_words(n) for n in range(1, 52)] == [min(n + 1, 50) for n in range(1, 52)]
    assert len(built) <= 2


def test_periodic_seed_normalization():
    a = PeriodicOrbit("0101")
    b = PeriodicOrbit("10")
    assert a.seed == b.seed == "01"
    assert a == b
    assert a.period == 2


# all p rotations of a 100000-letter seed would take 10^10 letters, so under
# a 1 GB address-space cap building them ends in a MemoryError
LONG_SEED = """
import sys
from shiftlab.cli import main
main(["validate", sys.argv[1]])
sys.exit(main(["run", sys.argv[1]]))
"""


def test_a_long_periodic_seed_is_normalized_in_linear_memory(tmp_path):
    seed = "1" + "0" * 50000 + "2" + "0" * 49998
    run = {"name": "long", "operation": "complexity", "params": {"shift": "long", "depth": 3}}
    config = tmp_path / "long.json"
    config.write_text(json.dumps({"shifts": {"long": {"kind": "periodic", "seed": seed}},
                                  "runs": [run], "out_dir": str(tmp_path / "out")}))
    result = run_capped(LONG_SEED, config, timeout=60)
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[0] == "ok: 1 shifts, 0 codes, 0 groups, 1 runs"
    rows = (tmp_path / "out" / "long.csv").read_text().splitlines()[1:]
    assert [int(row.split(",")[1]) for row in rows] == [
        len(periodic_words(seed, n)) for n in (1, 2, 3)
    ] == [3, 5, 7]


def test_periodic_words_frozen_example():
    x = PeriodicOrbit("01")
    assert set(x.words_of_length(5)) == {"01010", "10101"}


def test_periodic_against_brute_force():
    x = PeriodicOrbit("0010111")
    for n in range(1, 12):
        assert set(x.words_of_length(n)) == periodic_words("0010111", n)


def test_periodic_complexity_caps_at_period():
    x = PeriodicOrbit("001011")
    for n in range(1, 14):
        assert complexity(x, n) == min(len(periodic_words("001011", n)), 6) == complexity(x, n)
    assert complexity(x, 30) == 6


def test_periodic_membership():
    x = PeriodicOrbit("010")
    assert "0010" in x.words_of_length(4)
    assert "11" not in x.words_of_length(2)


# -- special words ---------------------------------------------------------


def test_special_words_golden_mean(golden):
    # every legal word followed by 0 stays legal, so right-special words are
    # exactly those also extendable by 1, i.e. not ending in 1
    rs = special_words(golden, 3, "right")
    assert rs == ("000", "010", "100")
    ls = special_words(golden, 3, "left")
    assert ls == ("000", "001", "010")


def test_special_words_full_shift_everything():
    x = FullShift(BINARY)
    assert len(special_words(x, 4, "right")) == 16


def test_special_words_periodic_none():
    x = PeriodicOrbit("0011")
    assert special_words(x, 4, "right") == ()
    assert special_words(x, 4, "left") == ()


@st.composite
def _shifts_with_words(draw):
    """A shift and its legal words of each length, from an oracle: an SFT,
    a primitive substitution or a periodic orbit."""
    kind = draw(st.sampled_from(("sft", "substitution", "periodic")))
    symbols = draw(st.sampled_from(("01", "012")))
    if kind == "substitution":
        rules = draw(primitive_substitutions())
        shift = SubstitutionShift(Alphabet.of(sorted(rules)), rules)
        return shift, lambda n: substitution_factors(rules, n)
    if kind == "periodic":
        seed = draw(st.text(alphabet=symbols, min_size=1, max_size=6))
        return PeriodicOrbit(seed), lambda n: periodic_words(seed, n)
    forbidden = draw(st.lists(st.text(symbols, min_size=1, max_size=3), max_size=3))
    try:
        shift = SftForbidden(Alphabet.of(symbols), forbidden)
    except ValueError:
        assume(False)
    return shift, lambda n: sft_words_brute(symbols, forbidden, n)


@settings(max_examples=80, deadline=None)
@given(_shifts_with_words(), st.integers(0, 7), st.sampled_from(("right", "left")))
def test_special_words_match_the_extensions_of_longer_words(case, n, side):
    x, words = case
    want = special_words_by_extension(words(n + 1), side)
    assert special_words(x, n, side) == tuple(sorted(want, key=x.alphabet.word_key))


def test_special_words_rejects_bad_side(golden):
    with pytest.raises(ValueError):
        special_words(golden, 3, "up")


# -- entropy and periodicity tests --------------------------------------------


def test_entropy_profile_full_shift_exact():
    prof = entropy_profile(FullShift(BINARY), 6)
    assert prof.values == (2, 4, 8, 16, 32, 64)
    for e in prof.entropy_estimates:
        assert e == pytest.approx(math.log(2))
    assert prof.entropy_upper_estimate == pytest.approx(math.log(2))


def test_entropy_profile_golden_mean_near_limit(golden):
    prof = entropy_profile(golden, 14)
    assert prof.values[13] == 987
    assert prof.entropy_upper_estimate == pytest.approx(math.log(987) / 14)
    phi = (1 + math.sqrt(5)) / 2
    assert abs(prof.entropy_upper_estimate - math.log(phi)) < 0.02


def test_entropy_profile_estimates_monotone_enough(golden):
    # the min over the profile is attained at the last length for this SFT
    prof = entropy_profile(golden, 14)
    assert prof.entropy_upper_estimate == prof.entropy_estimates[-1]


def test_complexity_profile_validation():
    with pytest.raises(ValueError):
        ComplexityProfile((3, 2), (0.1, 0.1))
    with pytest.raises(ValueError, match=re.escape("P(3) > P(1)P(2)")):
        ComplexityProfile((2, 3, 13), (0.1, 0.1, 0.1))  # 13 > 2*3 at n=1+2
    with pytest.raises(ValueError, match=re.escape("P(2) > P(1)P(1)")):
        ComplexityProfile((2, 5, 6), (0.1, 0.1, 0.1))
    with pytest.raises(ValueError):
        ComplexityProfile((0,), (0.0,))
    with pytest.raises(ValueError):
        ComplexityProfile((), ())


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(1, 6), min_size=1, max_size=12))
def test_complexity_profile_names_the_first_failing_pair(steps):
    # nondecreasing counts, so only submultiplicativity can fail
    values = tuple(sum(steps[: i + 1]) for i in range(len(steps)))
    want = submultiplicative_failure(values)
    try:
        ComplexityProfile(values, (0.1,) * len(values))
    except ValueError as exc:
        assert str(exc) == want
    else:
        assert want is None


def test_morse_hedlund_periodic_witness():
    v = morse_hedlund_test(PeriodicOrbit("01"), 10)
    assert v.certifies_periodic and v.witness == 2
    assert str(v) == "PeriodicWitness(2)"


def test_morse_hedlund_aperiodic_no_witness(golden, fibonacci):
    v = morse_hedlund_test(golden, 12)
    assert not v.certifies_periodic and v.witness is None
    assert str(v) == "NoWitnessUpTo(12)"
    # Fibonacci sits right at the threshold P(n) = n + 1 and never crosses
    assert morse_hedlund_test(fibonacci, 12).witness is None


def test_morse_hedlund_longer_period():
    v = morse_hedlund_test(PeriodicOrbit("0010111"), 20)
    assert v.witness == 7


# -- counting against enumeration ------------------------------------------


def _one_of_each_kind():
    return {
        "full": FullShift(BINARY),
        "sft-graph": SftForbidden(BINARY, ["111", "00"]),
        "sft-letters": SftForbidden(Alphabet.of("abc"), ["b"]),
        "substitution": SubstitutionShift(BINARY, fibonacci_rules()),
        "periodic": PeriodicOrbit("0010111"),
    }


@pytest.mark.parametrize("kind", sorted(_one_of_each_kind()))
def test_negative_length_rejected(kind):
    x = _one_of_each_kind()[kind]
    for query in (x.count_words, x.words_of_length, lambda n: complexity(x, n)):
        with pytest.raises(ValueError, match="word length must be nonnegative"):
            query(-1)


@pytest.mark.parametrize("kind", sorted(_one_of_each_kind()))
def test_count_words_matches_enumeration(kind):
    # counted first on a fresh presentation, so nothing is cached yet
    x = _one_of_each_kind()[kind]
    counts = [x.count_words(n) for n in range(12)]
    assert counts == [len(x.words_of_length(n)) for n in range(12)]
    assert counts == [x.count_words(n) for n in range(12)]


sft_alphabets = st.sampled_from(["0", "01", "012"])


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_sft_complexity_matches_brute_force(data):
    alphabet = data.draw(sft_alphabets)
    forbidden = data.draw(
        st.lists(st.text(alphabet=alphabet, min_size=1, max_size=4), max_size=3)
    )
    try:
        x = SftForbidden(Alphabet.of(alphabet), forbidden)
    except ValueError:
        return
    for n in range(1, 9):
        assert complexity(x, n) == len(sft_words_brute(alphabet, forbidden, n))


def _forbid_enumeration(shift):
    # an enumeration of 2**40 words would exhaust memory, so a regression
    # fails here at its first enumeration instead
    shift._enumerate = lambda n: pytest.fail(f"enumerated words of length {n}")


def test_profiles_count_without_enumerating_long_words():
    # P(n) by closed form or path count and word indexes by extension
    # along the automaton: an SFT spells no word at any length
    full = FullShift(BINARY)
    golden = SftForbidden(BINARY, ["11"])
    mixed = SftForbidden(BINARY, ["111", "00"])
    for x in (full, golden, mixed):
        _forbid_enumeration(x)
    assert entropy_profile(full, 40).values[-1] == 2**40
    assert entropy_profile(golden, 40).values[-1] == 267914296
    assert morse_hedlund_test(mixed, 40).witness is None
    for x in (full, golden, mixed):
        assert x.word_index(12).count == x.count_words(12)
        assert not x._word_cache


# -- structural invariants, property style -----------------------------------

small_forbidden = st.lists(
    st.text(alphabet="01", min_size=1, max_size=3), min_size=0, max_size=3
)


@settings(max_examples=60, deadline=None)
@given(small_forbidden)
def test_sft_counts_monotone_and_submultiplicative(forbidden):
    try:
        x = SftForbidden(BINARY, forbidden)
    except ValueError:
        return
    vals = [complexity(x, n) for n in range(1, 9)]
    for i in range(1, 8):
        assert vals[i] >= vals[i - 1]
    for i in range(1, 8):
        for j in range(1, 9 - i):
            assert vals[i + j - 1] <= vals[i - 1] * vals[j - 1]


@settings(max_examples=60, deadline=None)
@given(small_forbidden)
def test_sft_every_word_extends_both_ways(forbidden):
    try:
        x = SftForbidden(BINARY, forbidden)
    except ValueError:
        return
    for w in x.words_of_length(4):
        assert any(w + a in x.words_of_length(5) for a in "01")
        assert any(a + w in x.words_of_length(5) for a in "01")


@settings(max_examples=60, deadline=None)
@given(small_forbidden)
def test_sft_factors_of_legal_words_are_legal(forbidden):
    try:
        x = SftForbidden(BINARY, forbidden)
    except ValueError:
        return
    for w in x.words_of_length(6):
        for i in range(6):
            for j in range(i + 1, 7):
                assert w[i:j] in x.words_of_length(j - i)


@settings(max_examples=40, deadline=None)
@given(st.text(alphabet="01", min_size=1, max_size=8))
def test_periodic_profile_consistency(seed):
    x = PeriodicOrbit(seed)
    prof = entropy_profile(x, 10)  # validation inside must pass
    assert prof.values[-1] <= x.period
    assert morse_hedlund_test(x, x.period + 1).certifies_periodic


# -- sorted enumerations and the word index -------------------------------------


@st.composite
def presentations(draw):
    """A fresh presentation of any kind on at most three symbols."""
    symbols = draw(st.sampled_from(("01", "012")))
    alphabet = Alphabet.of(symbols)
    kind = draw(st.sampled_from(("full", "sft", "substitution", "periodic")))
    if kind == "full":
        return FullShift(alphabet)
    if kind == "periodic":
        return PeriodicOrbit(draw(st.text(alphabet=symbols, min_size=1, max_size=7)))
    if kind == "substitution":
        images = st.text(alphabet=symbols, min_size=1, max_size=3)
        rules = {a: draw(images) for a in symbols}
        try:
            return SubstitutionShift(alphabet, rules)
        except ValueError:
            return SubstitutionShift(BINARY, fibonacci_rules())
    forbidden = draw(st.lists(st.text(alphabet=symbols, min_size=1, max_size=3), max_size=4))
    try:
        return SftForbidden(alphabet, forbidden)
    except ValueError:
        return SftForbidden(alphabet, [symbols[-1] * 2])


@settings(max_examples=80, deadline=None)
@given(presentations(), st.integers(1, 7))
def test_words_of_length_is_the_sorted_distinct_enumeration(x, n):
    # each kind against its own oracle: two-sided extension for SFTs (the
    # full shift forbids nothing), the orbit's windows, the inflation
    if isinstance(x, SubstitutionShift):
        expected = _sorted_factors(x.alphabet, x.rules, n)
    elif isinstance(x, PeriodicOrbit):
        expected = sorted(periodic_words(x.seed, n), key=x.alphabet.word_key)
    else:
        words = sft_words_brute("".join(x.alphabet.symbols), list(x.forbidden), n)
        expected = sorted(words, key=x.alphabet.word_key)
    assert x.words_of_length(n) == tuple(expected)


@settings(max_examples=80, deadline=None)
@given(presentations(), st.integers(1, 7))
def test_word_index_numbers_words_of_length_in_order(x, n):
    words, shorter = x.words_of_length(n), x.words_of_length(n - 1)
    index = x.word_index(n)
    symbols, k = x.alphabet.symbols, x.alphabet.size
    assert index.count == len(words)
    for i, w in enumerate(words):
        assert shorter[index.prefix[i]] == w[:-1]
        assert shorter[index.suffix[i]] == w[1:]
        assert symbols[index.last[i]] == w[-1]
    number = {w: i for i, w in enumerate(words)}
    expected = [number.get(u + a, len(words)) for u in shorter for a in symbols]
    assert index.succ == expected + [len(words)] * k


INDEX_DUMP = """
from shiftlab.shiftlang import Alphabet, FullShift, PeriodicOrbit, SftForbidden, SubstitutionShift
shifts = [
    FullShift(Alphabet.of("012")),
    SftForbidden(Alphabet.of("012"), ["122", "00"]),
    SftForbidden(Alphabet.of("01"), ["0110", "111"]),
    SubstitutionShift(Alphabet.of("012"), {"0": "21", "1": "02", "2": "12"}),
    PeriodicOrbit("0120110"),
]
for x in shifts:
    for i in map(x.word_index, range(1, 9)):
        print(i.count, i.prefix, i.suffix, i.last, i.succ)
"""


def test_word_indexes_do_not_depend_on_string_hashing():
    # SFT tries and graphs and substitution walks are built from sets of
    # strings, whose order changes with the hash seed; the indexes must not
    src = Path(shiftlang.__file__).resolve().parent.parent
    dumps = [
        subprocess.run(
            [sys.executable, "-c", INDEX_DUMP],
            env={**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": str(src)},
            check=True, capture_output=True, timeout=120,
        ).stdout
        for seed in ("1", "2")
    ]
    assert dumps[0] == dumps[1]
    assert dumps[0].count(b"\n") == 5 * 8


# -- the one-graph SFT against brute force ---------------------------------------


@st.composite
def sft_specs(draw):
    """(symbols, forbidden) on at most three symbols, forbidding nothing,
    only single letters, or single letters mixed with longer words."""
    symbols = draw(st.sampled_from(("0", "01", "012")))
    shape = draw(st.sampled_from(("none", "letters", "mixed")))
    forbidden = [] if shape == "none" else draw(st.lists(st.sampled_from(symbols), max_size=2))
    if shape == "mixed":
        longer = st.text(alphabet=symbols, min_size=2, max_size=3)
        forbidden += draw(st.lists(longer, min_size=1, max_size=3))
    return symbols, draw(st.permutations(forbidden))


@settings(max_examples=100, deadline=None)
@given(sft_specs(), st.integers(1, 6))
def test_sft_graph_answers_like_brute_force(spec, n):
    symbols, forbidden = spec
    alphabet = Alphabet.of(symbols)
    words_of = lambda m: sorted(sft_words_brute(symbols, forbidden, m), key=alphabet.word_key)
    try:
        shifts = [SftForbidden(alphabet, forbidden)]
    except ValueError:
        assert not words_of(1)
        return
    if not forbidden:
        # the full shift is this SFT under another name
        shifts.append(FullShift(alphabet))
        assert shifts[1] != shifts[0] and shifts[1].describe() != shifts[0].describe()
    words, shorter = words_of(n), words_of(n - 1)
    number = {w: i for i, w in enumerate(shorter)}
    block = max(map(len, forbidden), default=1) - 1
    for x in shifts:
        assert x.words_of_length(n) == tuple(words)
        assert x.count_words(n) == len(words)
        index = x.word_index(n)
        assert index.prefix == [number[w[:-1]] for w in words]
        assert index.suffix == [number[w[1:]] for w in words]
        assert index.last == [symbols.index(w[-1]) for w in words]
        assert x.words_of_length(0) == ("",)
        for length in sorted({n, block + 1, block + 2}):
            assert x.words_of_length(length) == tuple(words_of(length))
