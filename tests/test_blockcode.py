"""Sliding-block-code algebra: application, composition, ranges, inverses."""

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import run_capped

from shiftlab import blockcode
from shiftlab.blockcode import (
    BlockCode,
    IllegalWindowError,
    LocalRule,
    RangeProfile,
    apply_to_word,
    code_from_table,
    codes_equal,
    compose,
    endomorphism_check,
    identity_code,
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
from shiftlab.shiftlang import Alphabet, FullShift, PeriodicOrbit, SftForbidden, SubstitutionShift

BINARY = Alphabet.of("01")


@pytest.fixture(scope="module")
def full2():
    return FullShift(BINARY)


@pytest.fixture(scope="module")
def golden():
    return SftForbidden(BINARY, ["11"])


@pytest.fixture(scope="module")
def fibonacci():
    return SubstitutionShift(BINARY, {"0": "01", "1": "0"})


def flip(domain):
    return symbol_map_code(domain, {"0": "1", "1": "0"})


def xor_code(domain):
    # radius-1 rule emitting w[1] + w[2] mod 2: the classic 2-to-1 map
    table = {
        w: str((int(w[1]) + int(w[2])) % 2) for w in domain.words_of_length(3)
    }
    return code_from_table(domain, 1, table)


# -- construction and application ------------------------------------------


def test_table_totality_enforced(full2):
    with pytest.raises(ValueError, match=r"legal 1-words; missing \['1'\], extraneous \[\]$"):
        code_from_table(full2, 0, {"0": "1"})
    with pytest.raises(ValueError, match=r"missing \[\], extraneous \['2'\]$"):
        code_from_table(full2, 0, {"0": "1", "1": "0", "2": "0"})
    with pytest.raises(ValueError, match="^table output 'x' for '0' is outside the alphabet$"):
        code_from_table(full2, 0, {"0": "x", "1": "0"})
    with pytest.raises(ValueError, match="^table output for '0' must be a single symbol$"):
        code_from_table(full2, 0, {"0": "01", "1": "0"})
    with pytest.raises(ValueError, match="^radius must be nonnegative$"):
        BlockCode(full2, LocalRule(-1, {}))
    with pytest.raises(ValueError, match="^symbol map misses legal symbol '1'$"):
        symbol_map_code(full2, {"0": "1"})


def test_a_hand_built_code_keeps_its_rule(full2):
    rule = LocalRule(0, {"1": "0", "0": "1"})
    code = BlockCode(full2, rule)
    assert code.rule is rule
    assert (code.radius, code.outputs) == (0, [1, 0])


def test_shift_code_applies_as_index_shift(full2):
    # output letter j is rule(w[j..j+2R]); for the forward shift that is
    # w[j+2], so the readable stretch of the image is the right-aligned one
    sigma = shift_power_code(full2, 1)
    assert apply_to_word(sigma, "0110") == "10"
    back = shift_power_code(full2, -1)
    assert apply_to_word(back, "0110") == "01"


def test_flip_application(full2):
    assert apply_to_word(flip(full2), "0110") == "1001"


def test_apply_rejects_short_and_illegal_words(golden):
    sigma = shift_power_code(golden, 1)
    with pytest.raises(ValueError):
        apply_to_word(sigma, "01")
    with pytest.raises(IllegalWindowError):
        apply_to_word(sigma, "0110")  # contains forbidden 11


def test_shift_flip_composition_hand_value(full2):
    # flip-then-shift at combined radius 1 maps 01101 through three windows
    code = compose(shift_power_code(full2, 1), flip(full2))
    assert apply_to_word(code, "01101") == "010"


# -- composition ------------------------------------------------------------


def test_compose_flip_flip_is_identity(full2):
    assert is_identity(compose(flip(full2), flip(full2)))
    assert minimal_range(compose(flip(full2), flip(full2))) == 0


def test_compose_shift_shift(full2):
    s2 = compose(shift_power_code(full2, 1), shift_power_code(full2, 1))
    assert s2.rule.radius == 2
    assert codes_equal(s2, shift_power_code(full2, 2))
    for w in full2.words_of_length(5):
        assert apply_to_word(s2, w) == w[4]


def test_compose_commutes_for_flip_and_shift(full2):
    a = compose(shift_power_code(full2, 1), flip(full2))
    b = compose(flip(full2), shift_power_code(full2, 1))
    assert codes_equal(a, b)


def test_codes_on_different_domains_differ(full2, golden):
    # the identity has the same one-symbol table on both shifts
    same = {"0": "0", "1": "1"}
    a, b = symbol_map_code(full2, same), symbol_map_code(golden, same)
    assert a.rule == b.rule
    assert not codes_equal(a, b)


def test_compose_requires_common_domain(full2, golden):
    with pytest.raises(ValueError):
        compose(flip(full2), shift_power_code(golden, 1))


def test_compose_rejects_non_endomorphic_inner(golden):
    # flip sends legal 00 to forbidden 11, so composing anything after it
    # must fail loudly at table construction
    with pytest.raises(IllegalWindowError):
        compose(shift_power_code(golden, 1), flip(golden))


# -- powers and minimal range -----------------------------------------------


def test_power_of_flip_has_order_two(full2):
    assert is_identity(power(flip(full2), 2))


def test_power_needs_a_positive_exponent(full2):
    with pytest.raises(ValueError, match="^power needs n >= 1$"):
        power(flip(full2), 0)


# a finite-order code's tables never outgrow the table budget, so without a
# cycle search its 10**9-th power would climb one power at a time
HUGE_ORDER = """
import sys
from shiftlab.cli import main
status = main(["validate", sys.argv[1]])
sys.exit(status or main(["run", sys.argv[1]]))
"""


def test_a_finite_order_power_reads_its_cycle(tmp_path):
    # the flip's powers cycle from the first; the squash's powers reach
    # their cycle only at the second, which the first does not lie on
    squash = {"kind": "symbol_map", "domain": "full-3", "image": {"0": "1", "1": "2", "2": "2"}}
    codes = {"flip": "full-2/flip", "squash": "squash"}
    doc = {
        "shifts": {"full-3": {"kind": "full", "alphabet": "012"}},
        "codes": {"squash": squash, **{
            f"huge-{name}": {"kind": "power", "base": base, "exponent": 10**9}
            for name, base in codes.items()
        }},
        "runs": [{"name": name, "operation": "minimal_range", "params": {"code": f"huge-{name}"}}
                 for name in codes],
        "out_dir": str(tmp_path / "out"),
    }
    config = tmp_path / "huge-order.json"
    config.write_text(json.dumps(doc))
    result = run_capped(HUGE_ORDER, config)
    assert result.returncode == 0, result.stderr
    for name in codes:
        text = (tmp_path / "out" / f"{name}.txt").read_text()
        assert text == "declared_range: 0\nminimal_range: 0\n"


def test_power_of_shift_has_exact_range(full2, golden, fibonacci):
    for domain in (full2, golden, fibonacci):
        sigma = shift_power_code(domain, 1)
        for n in range(1, 5):
            assert minimal_range(power(sigma, n)) == n


def test_power_of_shift_flip_cancels_flips(full2):
    sf = compose(shift_power_code(full2, 1), flip(full2))
    assert codes_equal(power(sf, 2), shift_power_code(full2, 2))


def test_minimal_range_of_padded_shift(full2):
    fat = compose(shift_power_code(full2, 3), shift_power_code(full2, -2))
    assert fat.rule.radius == 5
    assert minimal_range(fat) == 1
    assert minimized(fat).rule.radius == 1
    assert codes_equal(fat, shift_power_code(full2, 1))


def test_minimal_range_via_composition_with_inverse(full2):
    s2 = power(shift_power_code(full2, 1), 2)
    back = shift_power_code(full2, -1)
    declared3 = compose(s2, back)
    assert declared3.rule.radius == 3
    assert minimal_range(declared3) == 1


def test_sigma_on_periodic_orbit_collapses_to_symbol_map():
    orbit = PeriodicOrbit("01")
    sigma = shift_power_code(orbit, 1)
    assert minimal_range(sigma) == 0  # shifting the 01-orbit equals flipping it
    assert codes_equal(sigma, flip(orbit))


def test_minimized_idempotent(full2):
    code = power(compose(shift_power_code(full2, 1), flip(full2)), 3)
    m = minimized(code)
    assert minimized(m).rule == m.rule


# -- endomorphism check -------------------------------------------------------


def test_flip_is_endomorphism_of_full_but_not_golden(full2, golden):
    assert endomorphism_check(flip(full2))
    assert not endomorphism_check(flip(golden))


def test_shift_is_endomorphism_everywhere(full2, golden, fibonacci):
    for domain in (full2, golden, fibonacci):
        assert endomorphism_check(shift_power_code(domain, 1))


def test_flip_not_endomorphism_of_fibonacci(fibonacci):
    assert not endomorphism_check(flip(fibonacci))


def test_xor_is_endomorphism_of_full_shift(full2):
    assert endomorphism_check(xor_code(full2))


# -- inverse search ------------------------------------------------------------


def test_inverse_of_flip_is_flip(full2):
    inv = inverse_search(flip(full2), 0)
    assert inv is not None
    assert codes_equal(inv, flip(full2))


def test_inverse_of_shift_is_backshift(full2, golden):
    for domain in (full2, golden):
        inv = inverse_search(shift_power_code(domain, 1), 1)
        assert inv is not None
        assert codes_equal(inv, shift_power_code(domain, -1))
        assert is_identity(compose(inv, shift_power_code(domain, 1)))


def test_xor_code_has_no_inverse(full2):
    assert inverse_search(xor_code(full2), 3) is None
    # the obstruction: two distinct 9-words with equal images
    images = {}
    collision = None
    for w in full2.words_of_length(9):
        v = apply_to_word(xor_code(full2), w)
        if v in images and images[v] != w:
            collision = (images[v], w)
            break
        images[v] = w
    assert collision is not None


def test_inverse_radius_cap_respected(full2):
    # the double shift needs radius 2; a cap of 1 must miss it
    s2 = shift_power_code(full2, 2)
    assert inverse_search(s2, 1) is None
    inv = inverse_search(s2, 2)
    assert inv is not None and codes_equal(inv, shift_power_code(full2, -2))


def test_a_found_inverse_is_composed_once(full2, golden, monkeypatch):
    # work gate: a table that passes the checks makes psi after phi the
    # identity by construction, so only phi after psi is composed
    calls = []
    monkeypatch.setattr(blockcode, "compose", lambda *args: calls.append(args) or compose(*args))
    for code, radius in [(flip(full2), 0), (shift_power_code(golden, 1), 1),
                         (shift_power_code(full2, 2), 2)]:
        calls.clear()
        inv = inverse_search(code, radius)
        assert [(outer.rule, inner) for outer, inner, _ in calls] == [(code.rule, inv)]


# -- range profiles --------------------------------------------------------------


def test_shift_profile_linear(fibonacci):
    prof = range_profile(shift_power_code(fibonacci, 1), 6)
    assert prof.entries == (1, 2, 3, 4, 5, 6)
    assert prof.asymptotic_upper == Fraction(1)
    assert prof.classification == "LinearLowerBounded"
    assert prof.truncated_at is None


def test_flip_profile_zero(full2):
    prof = range_profile(flip(full2), 6)
    assert prof.entries == (0, 0, 0, 0, 0, 0)
    assert prof.asymptotic_upper == 0
    assert prof.classification == "SublinearTrend"


def test_double_shift_profile(golden):
    prof = range_profile(shift_power_code(golden, 2), 4)
    assert prof.entries == (2, 4, 6, 8)
    assert prof.asymptotic_upper == Fraction(2)


def test_profile_budget_truncation(full2):
    # sigma^n needs a 2^(2n+1)-row table on the full shift; 1000 rows
    # allows up to n = 4 (512 rows) and stops at n = 5
    prof = range_profile(shift_power_code(full2, 1), 12, table_budget=1000)
    assert prof.truncated_at == 5
    assert prof.entries == (1, 2, 3, 4)
    # the first power reuses the constructed table, so even a tiny budget
    # yields one exact entry rather than an error
    tiny = range_profile(shift_power_code(full2, 1), 3, table_budget=4)
    assert tiny.entries == (1,) and tiny.truncated_at == 2
    with pytest.raises(BudgetExceededError):
        compose(shift_power_code(full2, 1), shift_power_code(full2, 1), table_budget=4)


def test_profile_validation_guards(full2):
    with pytest.raises(ValueError):
        RangeProfile.from_entries((1, 5))  # not subadditive
    with pytest.raises(ValueError):
        RangeProfile((1, 2), Fraction(7), "LinearLowerBounded")  # wrong ratio
    with pytest.raises(ValueError):
        RangeProfile.from_entries(())
    with pytest.raises(ValueError, match="^profile needs at least one entry$"):
        RangeProfile((), Fraction(0), "SublinearTrend")
    with pytest.raises(ValueError, match="^profile needs max_power >= 1$"):
        range_profile(shift_power_code(full2, 1), 0)
    # the bare constructor skips the subadditivity law on purpose: audit
    # detector tests need corrupted profiles to be constructible
    fake = RangeProfile((1, 5), Fraction(1), "LinearLowerBounded")
    assert fake.entries == (1, 5)


# -- algebraic properties --------------------------------------------------------


def radius1_tables(domain):
    words = domain.words_of_length(3)
    return st.tuples(*[st.sampled_from("01") for _ in words]).map(
        lambda outs: code_from_table(domain, 1, dict(zip(words, outs)))
    )


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_minimal_range_subadditive_under_composition(data):
    domain = FullShift(BINARY)
    a = data.draw(radius1_tables(domain))
    b = data.draw(radius1_tables(domain))
    c = compose(a, b)
    assert minimal_range(c) <= minimal_range(a) + minimal_range(b)


@settings(max_examples=15, deadline=None)
@given(st.data())
def test_composition_associative(data):
    domain = FullShift(BINARY)
    a = data.draw(radius1_tables(domain))
    b = data.draw(radius1_tables(domain))
    c = data.draw(radius1_tables(domain))
    left = compose(compose(a, b), c)
    right = compose(a, compose(b, c))
    assert codes_equal(left, right)


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_inverse_search_sound(data):
    domain = FullShift(BINARY)
    a = data.draw(radius1_tables(domain))
    inv = inverse_search(a, 2)
    if inv is not None:
        assert is_identity(compose(inv, a))
        assert is_identity(compose(a, inv))
        assert minimal_range(inv) <= 2


@settings(max_examples=20, deadline=None)
@given(st.data())
def test_identity_composition_neutral(data):
    domain = FullShift(BINARY)
    a = data.draw(radius1_tables(domain))
    assert codes_equal(compose(a, identity_code(domain)), a)
    assert codes_equal(compose(identity_code(domain), a), a)
