"""Group models, word metrics, certificates, and growth formulas."""

import json
import math
import random
from collections.abc import Mapping
from fractions import Fraction
from functools import reduce

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from shiftlab import grouplab
from shiftlab.errors import BudgetExceededError
from shiftlab.grouplab import (
    BS1nModel,
    GeneratingSet,
    HeisenbergModel,
    WordExpr,
    ZdModel,
    auto_certifier,
    ball_growth,
    base_q_certificate,
    bass_guivarch_degree,
    bfs_word_length,
    bs_horner_certificate,
    bs_horner_length_bound,
    cayley_ball,
    commutator_power_check,
    distortion_profile,
    embedding_step_bound,
    heisenberg_square_certificate,
    min_growth_degree,
)

from oracles import (
    bs_multiply,
    cayley_ball_by_multiply,
    embedding_step_bound_by_loop,
    evaluate_by_multiply,
    power_by_squaring,
    run_capped,
    subadditive_closure_loop,
)

HEIS = HeisenbergModel()
BS2 = BS1nModel(2)
BS3 = BS1nModel(3)

small_ints = st.integers(min_value=-8, max_value=8)
heis_elements = st.tuples(small_ints, small_ints, small_ints)
bs_elements = st.tuples(
    st.integers(min_value=-4, max_value=4),
    st.fractions(min_value=-8, max_value=8, max_denominator=64),
)
# elements in the models' own representation: an integral translation is an
# int, and pure dilations (m = 0) and pure translations (k = 0) are frequent
bs_canonical = st.tuples(
    st.integers(min_value=-4, max_value=4) | st.just(0),
    st.just(0)
    | st.integers(min_value=-50, max_value=50)
    | st.fractions(min_value=-8, max_value=8, max_denominator=64).map(
        lambda f: int(f) if f.denominator == 1 else f
    ),
)
exponents = st.integers(min_value=-40, max_value=40) | st.just(0)


# -- model arithmetic --------------------------------------------------------


def test_heisenberg_presentation_relations():
    u, t, s = (1, 0, 0), (0, 1, 0), (0, 0, 1)
    m = HEIS.multiply
    assert m(s, u) == m(u, s)
    assert m(t, s) == m(s, t)
    commutator = m(m(u, t), m(HEIS.inverse(u), HEIS.inverse(t)))
    assert commutator == s


def test_bs_defining_relation():
    for model in (BS2, BS3):
        a, b = model.generators()["a"], model.generators()["b"]
        conj = model.multiply(model.multiply(b, a), model.inverse(b))
        assert conj == model.power(a, model.n)


def test_relations_hold_over_many_random_elements():
    # bulk soundness sweep: associativity and inverses at scale
    rng = random.Random(7)
    for _ in range(10_000):
        trip = [
            (rng.randint(-9, 9), rng.randint(-9, 9), rng.randint(-9, 9))
            for _ in range(3)
        ]
        x, y, z = trip
        assert HEIS.multiply(HEIS.multiply(x, y), z) == HEIS.multiply(
            x, HEIS.multiply(y, z)
        )
        assert HEIS.multiply(x, HEIS.inverse(x)) == HEIS.identity()


@settings(max_examples=80, deadline=None)
@given(heis_elements, heis_elements, heis_elements)
def test_heisenberg_group_axioms(x, y, z):
    m = HEIS.multiply
    assert m(m(x, y), z) == m(x, m(y, z))
    assert m(x, HEIS.identity()) == x
    assert m(HEIS.inverse(x), x) == HEIS.identity()


@settings(max_examples=80, deadline=None)
@given(bs_elements, bs_elements, bs_elements)
def test_bs_group_axioms(x, y, z):
    m = BS2.multiply
    assert m(m(x, y), z) == m(x, m(y, z))
    assert m(x, BS2.identity()) == x
    assert m(x, BS2.inverse(x)) == BS2.identity()


def test_bs_translation_parts_canonicalized():
    a = BS2.generators()["a"]
    b = BS2.generators()["b"]
    # b^-1 a b has translation part 1/2; conjugating back restores int
    inner = BS2.multiply(BS2.multiply(BS2.inverse(b), a), b)
    assert inner == (0, Fraction(1, 2))
    outer = BS2.multiply(BS2.multiply(b, inner), BS2.inverse(b))
    assert outer == (0, 1) and isinstance(outer[1], int)


# n^(10^12) would take about 200 GB, so under the 1 GB address-space cap
# any power of n that scales a zero translation, that a token adding nothing
# pays, that a dilation after a translation pays before the end, or that a
# dilation before any translation charges to it, ends in a MemoryError, if
# the timeout does not end it first
HUGE_DILATIONS = """
import sys
from shiftlab.cli import main
from shiftlab.grouplab import BS1nModel, WordExpr
model, E, F = BS1nModel(3), 10**12, 10**7
for text, value in [(f"b^{E}", (E, 0)), (f"b^-{E}", (-E, 0)), (f"b^{E} b^-{E}", (0, 0)),
                    (f"a b^{F}", (F, 1)), (f"a b^-{F}", (-F, 1)), (f"a b^{E}", (E, 1)),
                    (f"a b^-{E}", (-E, 1)), (f"a^3 b^{F}", (F, 3)), (f"a b^{E} b^-{E}", (0, 1)),
                    (f"a b^{E} a^0", (E, 1)), (f"a b^-{E} a^0", (-E, 1)),
                    (f"b^{E} a a^-1", (E, 0)), (f"b^-{E} a a^-1", (-E, 0))]:
    assert WordExpr.parse(text).evaluate(model, model.generators()) == value, text
assert model.inverse((E, 0)) == (-E, 0)
assert model.multiply((E, 0), (E, 0)) == (2 * E, 0)
assert model.multiply((E, 0), (-E, 0)) == (0, 0)
sys.exit(main(["run", sys.argv[1]]))
"""


def test_huge_bs_dilations_raise_no_power_of_n(tmp_path):
    far = {"name": "far", "operation": "word_length",
           "params": {"group": "bs-3", "element": f"b^{10**12}", "radius": 4}}
    config = tmp_path / "far.json"
    config.write_text(json.dumps({"runs": [far], "out_dir": str(tmp_path / "out")}))
    result = run_capped(HUGE_DILATIONS, config)
    assert result.returncode == 0, result.stderr
    summary = (tmp_path / "out" / "summary.csv").read_text().splitlines()
    assert summary[1] == "far,word_length,none,ok"


@settings(max_examples=40, deadline=None)
@given(heis_elements, st.integers(min_value=-20, max_value=20))
def test_power_matches_repeated_multiplication(x, e):
    expected = HEIS.identity()
    step = x if e >= 0 else HEIS.inverse(x)
    for _ in range(abs(e)):
        expected = HEIS.multiply(expected, step)
    assert HEIS.power(x, e) == expected


@settings(max_examples=300, deadline=None)
@given(
    st.tuples(st.just(HEIS), heis_elements)
    | st.tuples(st.sampled_from([BS2, BS3]), bs_canonical),
    exponents,
)
@example((BS2, (-3, Fraction(1, 4))), -5)
@example((BS3, (2, 0)), -7)
@example((BS3, (0, Fraction(-2, 3))), 0)
def test_power_matches_squaring(model_element, e):
    model, x = model_element
    got, expected = model.power(x, e), power_by_squaring(model, x, e)
    assert got == expected
    assert list(map(type, got)) == list(map(type, expected))


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([BS2, BS3]), bs_canonical, bs_canonical)
def test_bs_multiply_matches_fraction_arithmetic(model, x, y):
    got, expected = model.multiply(x, y), bs_multiply(model.n, x, y)
    assert got == expected
    assert type(got[1]) is type(expected[1])


def test_zd_model_basics():
    z3 = ZdModel(3)
    assert z3.generators() == {"e1": (1, 0, 0), "e2": (0, 1, 0), "e3": (0, 0, 1)}
    assert z3.power((1, -2, 3), 4) == (4, -8, 12)
    with pytest.raises(ValueError):
        ZdModel(0)
    with pytest.raises(ValueError):
        BS1nModel(1)


# -- word expressions ------------------------------------------------------------


def test_word_parse_evaluate_roundtrip():
    w = WordExpr.parse("u t u^-1 t^-1")
    assert w.length == 4
    assert w.evaluate(HEIS, HEIS.generators()) == (0, 0, 1)
    assert str(w) == "u t u^-1 t^-1"


def test_word_in_bs_conjugation():
    w = WordExpr.parse("b a b^-1")
    assert w.evaluate(BS2, BS2.generators()) == (0, 2)
    assert w.evaluate(BS3, BS3.generators()) == (0, 3)


def test_empty_word_is_identity():
    assert WordExpr(()).evaluate(HEIS, {}) == (0, 0, 0)
    assert WordExpr(()).length == 0


def test_word_errors():
    with pytest.raises(ValueError):
        WordExpr.parse("u^")
    with pytest.raises(ValueError):
        WordExpr.parse("3u")
    with pytest.raises(ValueError):
        WordExpr.parse("u x").evaluate(HEIS, {"u": (1, 0, 0)})


@st.composite
def bound_words(draw):
    """(model, binding, tokens): a standard or drawn generating set of Z^d,
    Heisenberg or BS(1,2)/BS(1,3) and a word over it, now and then with a
    name the binding lacks."""
    model = draw(st.sampled_from([ZdModel(1), ZdModel(2), ZdModel(3), HEIS, BS2, BS3]))
    if draw(st.booleans()):
        binding = model.generators()
    else:
        if isinstance(model, ZdModel):
            elements = st.tuples(*[small_ints] * model.dimension)
        else:
            elements = heis_elements if model is HEIS else bs_canonical
        drawn = draw(st.lists(elements, min_size=1, max_size=4))
        binding = {f"g{i}": x for i, x in enumerate(drawn)}
    token = st.tuples(st.sampled_from(sorted(binding)), st.integers(-6, 6))
    tokens = draw(st.lists(token, max_size=12))
    if isinstance(model, BS1nModel) and "a" in binding and draw(st.booleans()):
        # a Horner word, which stays in the ints, then the drawn tail
        m = draw(st.integers(1, 10**6))
        tokens[:0] = bs_horner_certificate(m, model.n).tokens
    if draw(st.integers(0, 5)) == 0:
        tokens.insert(draw(st.integers(0, len(tokens))), ("x", 1))
    return model, binding, tuple(tokens)


@settings(max_examples=400, deadline=None)
@given(bound_words())
@example((BS2, BS2.generators(), (("a", 1), ("b", 1))))  # pending -1 at the end
@example((BS3, BS3.generators(), (("b", 2), ("a", 9), ("b", 1))))  # 9 scaled by 3^(3-1)
@example((BS2, BS2.generators(), (("b", 1), ("a", 1), ("b", -2))))  # ends at k < 0
@example((BS3, {"g": (1, 3), "a": (0, 1)}, (("a", 2), ("g", -2))))  # mixed generator
@example((BS2, {"h": (0, Fraction(1, 3)), "b": (1, 0)}, (("b", -1), ("h", 3))))
@example((BS3, {"h": (0, Fraction(2, 3))}, (("h", 3),)))  # an integral Fraction sum
@example((BS2, BS2.generators(), (("b", 1), ("a", 1), ("b", -1))))
@example((BS3, {"b": (-1, 0), "a": (0, 5)}, (("b", 2), ("a", -3), ("b", -2))))
@example((HEIS, HEIS.generators(), (("u", 3), ("x", 1), ("y", 1))))
@example((BS3, {"g": (-2, 5), "a": (0, 1)}, (("a", 1), ("g", -3))))  # mixed, k < 0, e < 0
@example((BS2, {"g": (1, 3), **BS2.generators()}, (("a", 1), ("b", -2), ("g", 2))))  # pays p = 2
@example((BS2, {"h": (0, Fraction(1, 3)), **BS2.generators()}, (("a", 1), ("b", -1), ("h", 0))))
def test_evaluate_matches_the_multiply_loop(case):
    model, binding, tokens = case
    word = WordExpr(tokens)
    try:
        expected = evaluate_by_multiply(word, model, binding)
    except ValueError as exc:
        with pytest.raises(ValueError) as raised:
            word.evaluate(model, binding)
        assert str(raised.value) == str(exc)
        return
    got = word.evaluate(model, binding)
    assert got == expected
    assert list(map(type, got)) == list(map(type, expected))


class CountingBS1n(BS1nModel):
    """BS(1,n) counting its products: a work gate's model under @given,
    where a function-scoped monkeypatch would not reset between examples."""

    def __init__(self, n):
        super().__init__(n)
        self.products = 0

    def multiply(self, a, b):
        self.products += 1
        return super().multiply(a, b)


@st.composite
def bs_mixed_words(draw):
    """(model, tokens): a word over BS(1,2) or BS(1,3)'s {a, b} whose
    dilations run far in both directions, so pending powers of n are
    cancelled, paid on a translation, paid at the end, or left below 0."""
    model = draw(st.sampled_from([BS2, BS3]))
    token = st.tuples(st.just("a"), st.integers(-100, 100)) | st.tuples(
        st.just("b"), st.integers(-40, 40)
    )
    return model, tuple(draw(st.lists(token, max_size=10)))


@settings(max_examples=300, deadline=None)
@given(bs_mixed_words())
@example((BS2, (("a", 1), ("b", -3), ("b", 5))))  # pending 3, then -2: (2, 1)
@example((BS3, (("a", 9), ("b", -1), ("b", 3))))  # pending 1, then -2: (2, 9)
@example((BS2, (("a", 1), ("b", 1))))  # pending -1 at the end: (1, 1)
@example((BS2, (("a", 3), ("b", 1), ("a", 1))))  # pending -1, 2 added: (1, 5)
@example((BS3, (("a", 2), ("b", -4), ("a", 1), ("b", 4))))  # paid on a translation
@example((BS2, (("b", 5), ("a", 3), ("b", -2))))  # paid at the end
@example((BS3, (("a", 1), ("b", -30))))  # ends below 0, nothing paid
@example((BS2, (("a", 8), ("b", -2), ("a", -32), ("b", 9))))  # r back to 0
@example((BS2, (("a", 1), ("b", -3))))  # ends below 0 at an int, (-3, 1)
@example((BS2, (("b", -2), ("a", 1))))  # ends below 0 at a Fraction, (-2, 1/4)
def test_bs_fold_matches_the_multiply_loop_on_mixed_words(case):
    # and, a work gate, folds every word over {a, b} without a product
    model, tokens = case
    word, counted = WordExpr(tokens), CountingBS1n(model.n)
    got = word.evaluate(counted, counted.generators())
    expected = evaluate_by_multiply(word, model, model.generators())
    assert got == expected
    assert list(map(type, got)) == list(map(type, expected))
    assert counted.products == 0


def test_word_length_counts_multiplicity():
    assert WordExpr.parse("b^2 a b^-1 b^-1 a").length == 6


# -- generating sets ----------------------------------------------------------------


def test_generating_set_validation():
    with pytest.raises(ValueError):
        GeneratingSet.from_named(HEIS, {"e": (0, 0, 0)})
    with pytest.raises(ValueError):
        GeneratingSet(HEIS, ())
    with pytest.raises(ValueError):
        GeneratingSet(HEIS, (("u", (1, 0, 0)), ("u", (0, 1, 0))))


def test_labeled_deduplicates_explicit_inverses():
    z1 = ZdModel(1)
    gens = GeneratingSet.from_named(z1, {"a": (1,), "a_back": (-1,)})
    labels = gens.labeled()
    assert len(labels) == 2  # formal inverses coincide with the given pair
    # a generator repeated under a second name is one move (kills the
    # mutant of `labeled` that forces `if element not in seen` True)
    gens = GeneratingSet.from_named(z1, {"a": (1,), "again": (1,)})
    assert gens.labeled() == (("a", (1,)), ("a^-1", (-1,)))


# -- Cayley balls -------------------------------------------------------------------


def test_z2_ball_is_l1_ball():
    z2 = ZdModel(2)
    gens = GeneratingSet.standard(z2)
    ball = cayley_ball(z2, gens, 10)
    assert ball[(3, 4)] == 7
    for g, d in ball.items():
        assert d == abs(g[0]) + abs(g[1])


def test_z2_ball_sizes_formula():
    z2 = ZdModel(2)
    growth = ball_growth(z2, GeneratingSet.standard(z2), 8)
    assert growth.sizes == tuple(2 * r * r + 2 * r + 1 for r in range(9))
    assert not growth.superpolynomial
    assert 1.5 <= growth.fitted_degree <= 2.2


def test_heisenberg_word_lengths_frozen():
    gens = GeneratingSet.standard(HEIS)
    assert bfs_word_length(HEIS, gens, (0, 0, 4), 12) == 4
    assert bfs_word_length(HEIS, gens, (0, 0, 9), 12) == 9
    # the commutator word is an upper bound, never shorter than the metric
    assert heisenberg_square_certificate(2).length == 8 >= 4


def test_bs_word_lengths_frozen():
    gens = GeneratingSet.standard(BS2)
    lengths = [bfs_word_length(BS2, gens, (0, m), 10) for m in range(1, 13)]
    assert lengths == [1, 2, 3, 4, 5, 5, 6, 6, 7, 7, 8, 7]
    assert bs_horner_certificate(5, 2).length == 6 >= lengths[4]


def test_bfs_radius_cap_returns_none():
    z1 = ZdModel(1)
    gens = GeneratingSet.standard(z1)
    assert bfs_word_length(z1, gens, (9,), 5) is None
    assert bfs_word_length(z1, gens, (4,), 5) == 4


def test_bfs_budget_exceeded():
    z2 = ZdModel(2)
    with pytest.raises(BudgetExceededError):
        cayley_ball(z2, GeneratingSet.standard(z2), 10, state_budget=20)


def test_cayley_ball_checks_its_arguments():
    gens = GeneratingSet.standard(HEIS)
    with pytest.raises(ValueError, match="radius_max must be nonnegative"):
        cayley_ball(HEIS, gens, -1)
    with pytest.raises(ValueError, match="generating set belongs to a different model"):
        cayley_ball(BS2, gens, 3)


def test_targeted_search_matches_full_ball():
    gens = GeneratingSet.standard(HEIS)
    full = cayley_ball(HEIS, gens, 6)
    for target in [(1, 1, 1), (0, 0, 3), (2, -1, 0)]:
        assert bfs_word_length(HEIS, gens, target, 6) == full.get(target)


@settings(max_examples=30, deadline=None)
@given(st.sampled_from([(1, 0), (0, 1), (1, 1), (2, -1), (-1, 2)]))
def test_metric_symmetry_and_triangle(gpair):
    z2 = ZdModel(2)
    gens = GeneratingSet.standard(z2)
    ball = cayley_ball(z2, gens, 8)
    g = gpair
    h = (1, -1)
    assert ball[g] == ball[z2.inverse(g)]
    gh = z2.multiply(g, h)
    if gh in ball:
        assert ball[gh] <= ball[g] + ball[h]


# -- packed search against the multiply loop ----------------------------------------


@st.composite
def generated_groups(draw):
    """A model of each kind with its standard set, that set renamed with an
    explicit inverse, or up to three drawn generators.  Drawn Z^d sets,
    fractional BS translations, and any BS set but {a, b}, step by
    multiply; the standard and renamed Z^d sets are l1 balls."""
    kind = draw(st.sampled_from(["zd", "heisenberg", "bs"]))
    if kind == "zd":
        model = ZdModel(draw(st.integers(min_value=1, max_value=3)))
        element = st.tuples(*[st.integers(min_value=-3, max_value=3)] * model.dimension)
    elif kind == "heisenberg":
        model = HEIS
        element = st.tuples(*[st.integers(min_value=-2, max_value=2)] * 3)
    else:
        model = draw(st.sampled_from([BS2, BS3]))
        translations = [0, 1, -1, 2, Fraction(1, model.n), Fraction(-2, model.n)]
        element = st.tuples(st.integers(min_value=-1, max_value=1), st.sampled_from(translations))
    choice = draw(st.sampled_from(["standard", "renamed", "drawn"]))
    if choice == "standard":
        return model, GeneratingSet.standard(model)
    if choice == "renamed":
        first, *rest = model.generators().values()
        elements = [*rest, model.inverse(first), first]
    else:
        elements = draw(
            st.lists(
                element.filter(lambda g: g != model.identity()),
                min_size=1, max_size=3, unique=True,
            )
        )
    return model, GeneratingSet.from_named(model, {f"g{i}": g for i, g in enumerate(elements)})


@settings(max_examples=200, deadline=None)
@given(
    generated_groups(),
    st.integers(min_value=0, max_value=7),
    st.integers(min_value=0, max_value=3000),
    st.data(),
)
def test_packed_search_matches_multiply_loop(group, radius, budget, data):
    model, gens = group
    targets = None
    if data.draw(st.booleans()):
        # elements of the radius+1 ball, the identity among them at times
        moves = [g for _, g in gens.labeled()]
        words = data.draw(
            st.lists(st.lists(st.sampled_from(moves), max_size=radius + 1), max_size=4)
        )
        targets = [reduce(model.multiply, word, model.identity()) for word in words]
    try:
        expected = cayley_ball_by_multiply(model, gens, radius, budget, targets)
    except BudgetExceededError as exc:
        with pytest.raises(BudgetExceededError) as raised:
            cayley_ball(model, gens, radius, budget, targets)
        assert str(raised.value) == str(exc)
        return
    ball = cayley_ball(model, gens, radius, budget, targets)
    assert len(ball) == len(expected)
    assert dict(ball) == expected
    for target in targets or ():
        assert ball.get(target) == expected.get(target)


@st.composite
def unit_bases(draw):
    """Z^d, d = 1..4, over the basis ±e_i in a drawn order under drawn
    names: each e_i or its inverse is listed, at times both."""
    model = ZdModel(draw(st.integers(min_value=1, max_value=4)))
    elements = []
    for e in model.generators().values():
        first, second = draw(st.permutations([e, model.inverse(e)]))
        elements.append(first)
        if draw(st.booleans()):
            elements.append(second)
    elements = draw(st.permutations(elements))
    return model, GeneratingSet.from_named(model, {f"g{i}": g for i, g in enumerate(elements)})


@settings(max_examples=200, deadline=None)
@given(
    unit_bases(),
    st.integers(min_value=0, max_value=8),
    st.integers(min_value=0, max_value=2) | st.integers(min_value=0, max_value=3000),
    st.data(),
)
def test_unit_basis_ball_matches_the_search(basis, radius, budget, data):
    model, gens = basis
    d = model.dimension
    # points inside the radius and beyond it, and keys that are no element
    # (a wrong length, a Fraction entry) or look up like one (a bool entry)
    point = st.tuples(*[st.integers(min_value=-radius - 2, max_value=radius + 2)] * d)
    odd = st.sampled_from(
        [(0,) * (d + 1), (Fraction(1, 2),) + (0,) * (d - 1), (True,) + (0,) * (d - 1)]
    )
    keys = st.lists(point | odd, max_size=4)
    targets = data.draw(st.none() | st.just([model.identity()]) | keys)
    probes = [*(targets or ()), *data.draw(keys)]
    try:
        expected = cayley_ball_by_multiply(model, gens, radius, budget, targets)
    except BudgetExceededError as exc:
        with pytest.raises(BudgetExceededError) as raised:
            cayley_ball(model, gens, radius, budget, targets)
        assert str(raised.value) == str(exc)
        return
    ball = cayley_ball(model, gens, radius, budget, targets)
    assert isinstance(ball, grouplab._L1Ball)
    assert len(ball) == len(expected)
    assert dict(ball) == expected
    assert sorted(ball.values()) == sorted(expected.values())
    for key in probes:
        assert ball.get(key) == expected.get(key)


# a search of these balls would take hours and far more than the 1 GB cap;
# |B(r)| = (2r+1)(2r^2+2r+3)/3 in Z^3 first exceeds the default budget at
# r = 155
UNSEARCHED_BALLS = """
import time
from shiftlab.errors import DEFAULT_BFS_STATES, BudgetExceededError
from shiftlab.grouplab import GeneratingSet, ZdModel, bfs_word_length, cayley_ball
z2, z3 = ZdModel(2), ZdModel(3)
gens = GeneratingSet.standard(z3)
start = time.perf_counter()
assert bfs_word_length(z3, gens, (10**6, -5, 7), 2 * 10**6, state_budget=10**20) == 1000012
big = cayley_ball(z2, GeneratingSet.standard(z2), 10**6, state_budget=10**20)
assert len(big) == 2 * 10**12 + 2 * 10**6 + 1
assert time.perf_counter() - start < 1
over = 0
while (2 * over + 1) * (2 * over * over + 2 * over + 3) // 3 <= DEFAULT_BFS_STATES:
    over += 1
assert over == 155
start = time.perf_counter()
try:
    cayley_ball(z3, gens, 10**9)
except BudgetExceededError as exc:
    assert str(exc) == (
        f"bfs states budget exceeded: needed {DEFAULT_BFS_STATES + 1}, "
        f"limit {DEFAULT_BFS_STATES} (last completed radius {over - 1})"
    ), exc
else:
    raise AssertionError("no budget error")
assert time.perf_counter() - start < 1
"""


def test_unit_basis_balls_are_not_searched():
    result = run_capped(UNSEARCHED_BALLS)
    assert result.returncode == 0, result.stderr


# a BS(1,2) box for radius R holds ints of 2R bits and 2R + 1 powers of 2,
# so a box sized by a radius of 10^5 or more fills the 1 GB cap before the
# search trips its budget of 10 at radius 2
BUDGET_SIZED_BOX = """
import sys, time
from shiftlab.cli import main
from shiftlab.errors import BudgetExceededError
from shiftlab.grouplab import BS1nModel, GeneratingSet, cayley_ball
bs = BS1nModel(2)
start = time.perf_counter()
try:
    cayley_ball(bs, GeneratingSet.standard(bs), 10**9, state_budget=10)
except BudgetExceededError as exc:
    assert str(exc).endswith("needed 11, limit 10 (last completed radius 1)"), exc
else:
    raise AssertionError("no budget error")
main(["run", sys.argv[1]])
assert time.perf_counter() - start < 1
"""


def test_bs_box_is_sized_by_the_budget(tmp_path):
    runs = [
        {"name": f"r{radius}", "operation": "word_length",
         "params": {"group": "bs-2", "element": "a b", "radius": radius}}
        for radius in (10**5, 10**9)
    ]
    config = tmp_path / "deep.json"
    config.write_text(json.dumps(
        {"budgets": {"bfs_states": 10}, "runs": runs, "out_dir": str(tmp_path / "out")}
    ))
    result = run_capped(BUDGET_SIZED_BOX, config)
    assert result.returncode == 0, result.stderr
    summary = (tmp_path / "out" / "summary.csv").read_text().splitlines()
    error = '"error: bfs states budget exceeded: needed 11, limit 10 (last completed radius 1)"'
    assert summary[1:] == [f"r{r},word_length,-,{error}" for r in (10**5, 10**9)]


BS3_FRACTIONAL = GeneratingSet.from_named(BS3, {"a": (0, Fraction(1, 3)), "b": (1, 0)})

# pinned from the state-at-a-time search: id -> (model, gens, radius,
# budget, targets, error text)
BUDGET_ERRORS = {
    "zd": (ZdModel(2), None, 10, 20, None,
           "needed 21, limit 20 (last completed radius 2)"),
    "zd-targeted": (ZdModel(2), None, 10, 20, [(9, 0)],
                    "needed 21, limit 20 (last completed radius 2)"),
    "heisenberg": (HEIS, None, 6, 100, None,
                   "needed 101, limit 100 (last completed radius 3)"),
    "heisenberg-targeted": (HEIS, None, 6, 100, [(0, 0, 9)],
                            "needed 101, limit 100 (last completed radius 3)"),
    "bs": (BS2, None, 9, 50, None, "needed 51, limit 50 (last completed radius 3)"),
    "bs-targeted": (BS2, None, 9, 50, [(0, 11)],
                    "needed 51, limit 50 (last completed radius 3)"),
    "fallback": (BS3, BS3_FRACTIONAL, 9, 30, None,
                 "needed 31, limit 30 (last completed radius 2)"),
    "fallback-targeted": (BS3, BS3_FRACTIONAL, 9, 30, [(0, 5)],
                          "needed 31, limit 30 (last completed radius 2)"),
}


@pytest.mark.parametrize("case", sorted(BUDGET_ERRORS))
def test_budget_error_text_pinned(case):
    model, gens, radius, budget, targets, text = BUDGET_ERRORS[case]
    gens = gens or GeneratingSet.standard(model)
    with pytest.raises(BudgetExceededError) as raised:
        cayley_ball(model, gens, radius, budget, targets)
    assert str(raised.value) == f"bfs states budget exceeded: {text}"


@pytest.mark.parametrize("radius", [10**7, 10**400], ids=["large", "huge"])
def test_a_huge_zd_radius_ends_in_the_budget_error(radius):
    # |B(999)| = 1998001 in Z^2; a radius too large to index a range must
    # trip the budget where a large one does, not overflow
    z2 = ZdModel(2)
    gens = GeneratingSet.standard(z2)
    text = ("bfs states budget exceeded: needed 2000001, limit 2000000 "
            "(last completed radius 999)")
    with pytest.raises(BudgetExceededError) as raised:
        ball_growth(z2, gens, radius, 2_000_000)
    assert str(raised.value) == text
    with pytest.raises(BudgetExceededError) as raised:
        bfs_word_length(z2, gens, (radius + 1, 0), radius, 2_000_000)
    assert str(raised.value) == text


def test_a_huge_zd_radius_and_budget_end_in_the_budget_error():
    # |B(r)| = 2r^2 + 2r + 1 in Z^2 first passes 10^30 at r = 707106781186548;
    # a budget past 2^63 must not make the bisection index a range
    z2 = ZdModel(2)
    gens = GeneratingSet.standard(z2)
    huge = 10**30
    text = (f"bfs states budget exceeded: needed {huge + 1}, limit {huge} "
            "(last completed radius 707106781186547)")
    with pytest.raises(BudgetExceededError) as raised:
        bfs_word_length(z2, gens, (huge + 1, 0), huge, huge)
    assert str(raised.value) == text
    with pytest.raises(BudgetExceededError) as raised:
        ball_growth(z2, gens, huge, huge)
    assert str(raised.value) == text


@pytest.mark.parametrize(
    "model, gens",
    [(ZdModel(2), None), (HEIS, None), (BS2, None), (BS3, BS3_FRACTIONAL)],
    ids=["zd", "heisenberg", "bs", "fallback"],
)
def test_targets_with_the_identity(model, gens):
    gens = gens or GeneratingSet.standard(model)
    ident = model.identity()
    assert dict(cayley_ball(model, gens, 5, targets=[ident])) == {ident: 0}
    far = reduce(model.multiply, [g for _, g in gens.base] * 2)
    targets = [ident, far]
    ball = cayley_ball(model, gens, 5, targets=targets)
    assert dict(ball) == cayley_ball_by_multiply(model, gens, 5, 10**6, targets)
    assert ball[ident] == 0 and ball[far] >= 1


def test_zd_target_outside_the_packing_box_is_missing():
    z2 = ZdModel(2)
    gens = GeneratingSet.standard(z2)
    ball = cayley_ball(z2, gens, 5, targets=[(40, 0)])
    assert len(ball) == 2 * 5 * 5 + 2 * 5 + 1  # no early stop
    for key in [(40, 0), (1,), (1, 0, 0), "e1", (0.5, 0)]:
        assert key not in ball and ball.get(key) is None
    with pytest.raises(KeyError):
        ball[(40, 0)]
    assert bfs_word_length(z2, gens, (40, 0), 5) is None


def test_bs_target_finer_than_the_radius_is_missing():
    # a translation by 1/2^6 has a denominator beyond 2^5, so no word of
    # length 5 reaches it
    gens = GeneratingSet.standard(BS2)
    target = (0, Fraction(1, 64))
    assert bfs_word_length(BS2, gens, target, 5) is None
    ball = cayley_ball(BS2, gens, 5)
    assert target not in ball
    assert (0, Fraction(1, 32)) not in ball  # b^-5 a b^5 has length 11
    assert ball[(-5, 0)] == 5 and ball[(0, Fraction(1, 2))] == 3
    for key in [(0,), (0, 0, 0), "ab", (0, 0.5), (0, "1")]:
        assert key not in ball and ball.get(key) is None


def test_heisenberg_keys_outside_the_ball_are_missing():
    # R = 3: the packing box holds |x|, |y| <= 3 and |z| <= 12
    ball = cayley_ball(HEIS, GeneratingSet.standard(HEIS), 3)
    for key in [(0, 0, 13), (4, 0, 0), (0, 0, 12), (0, 0), (0.5, 0, 0), "utz"]:
        assert key not in ball and ball.get(key) is None
    assert ball[(True, 0, 0)] == ball[(1, 0, 0)] == 1


@pytest.mark.parametrize(
    "model, named",
    [(ZdModel(2), {"h": (Fraction(1, 2), 0), "e2": (0, 1)}),
     (HEIS, {"u": (Fraction(1, 2), 0, 0), "t": (0, 1, 0)}),
     (ZdModel(2), {"h": (2, 0), "e2": (0, 1)})],
    ids=["z2", "heisenberg", "z2-not-unit"],
)
def test_non_int_generators_step_by_multiply(model, named):
    # no packing box holds a half step, and Z^d has no packing, so the
    # search multiplies instead
    gens = GeneratingSet.from_named(model, named)
    ball = cayley_ball(model, gens, 4)
    assert type(ball) is dict
    assert ball == cayley_ball_by_multiply(model, gens, 4, 10**6)


def test_packed_ball_is_a_read_only_mapping():
    ball = cayley_ball(BS2, GeneratingSet.standard(BS2), 3)
    assert isinstance(ball, Mapping)
    items = dict(ball.items())
    assert items == dict(zip(ball, ball.values())) == {g: ball[g] for g in ball}
    assert sorted(ball.values()) == sorted(items.values())
    assert (0, Fraction(1, 2)) in items
    # decoded keys are canonical: an integral translation is an int
    assert all(type(m) is int or m.denominator > 1 for _, m in ball)
    with pytest.raises(TypeError):
        ball[(0, 0)] = 1


def test_keys_outside_the_packing_box_are_missing():
    # at radius 2 the x digit has base 5, so (3, -1, 0) would pack onto
    # (-2, 0, 0) if encode let its x digit carry (kills the mutant of
    # `_heisenberg_packing.encode` that drops the box check's return)
    ball = cayley_ball(HEIS, GeneratingSet.standard(HEIS), 2)
    assert ball[(-2, 0, 0)] == 2
    assert (3, -1, 0) not in ball and ball.get((3, -1, 0)) is None


@pytest.mark.parametrize(
    "model, radius, size",
    [(HEIS, 16, 28417), (ZdModel(3), 20, 11521), (ZdModel(2), 60, 7321),
     (BS2, 9, 2403), (BS3, 8, 2929)],
    ids=["heisenberg-r16", "z3-r20", "z2-r60", "bs2-r9", "bs3-r8"],
)
def test_ball_sizes_of_the_word_metrics_searches(model, radius, size):
    # the bfs_states work count: the size of each ball the workload asks for
    assert len(cayley_ball(model, GeneratingSet.standard(model), radius)) == size


@pytest.mark.parametrize(
    "model, named, radius",
    [(HEIS, None, 5), (BS2, None, 5), (ZdModel(3), None, 6),
     (ZdModel(2), {"h": (2, 0), "e2": (0, 1)}, 6)],
    ids=["packed-heisenberg", "packed-bs2", "l1-z3", "generic-z2"],
)
def test_ball_values_run_in_nondecreasing_order(model, named, radius):
    # ball_growth reads its sizes off this order by bisection
    if named is None:
        gens = GeneratingSet.standard(model)
    else:
        gens = GeneratingSet.from_named(model, named)
    values = list(cayley_ball(model, gens, radius).values())
    assert values == sorted(values)
    expected = cayley_ball_by_multiply(model, gens, radius, 10**6).values()
    sizes = tuple(sum(d <= r for d in expected) for r in range(radius + 1))
    assert ball_growth(model, gens, radius).sizes == sizes


# -- ball growth -----------------------------------------------------------------------


def test_heisenberg_growth_degree_near_four():
    growth = ball_growth(HEIS, GeneratingSet.standard(HEIS), 10)
    assert 3.5 <= growth.fitted_degree <= 4.5
    assert not growth.superpolynomial


def test_bs_growth_superpolynomial():
    growth = ball_growth(BS2, GeneratingSet.standard(BS2), 10)
    assert growth.superpolynomial


def test_z1_growth_linear_degree():
    z1 = ZdModel(1)
    growth = ball_growth(z1, GeneratingSet.standard(z1), 8)
    assert growth.sizes == tuple(2 * r + 1 for r in range(9))
    assert 0.8 <= growth.fitted_degree <= 1.2
    assert not growth.superpolynomial


def test_growth_needs_enough_radii():
    with pytest.raises(ValueError):
        ball_growth(HEIS, GeneratingSet.standard(HEIS), 2)


# -- distortion profiles -----------------------------------------------------------------


def test_z_profile_linear_and_exact_prefix():
    z1 = ZdModel(1)
    prof = distortion_profile(z1, GeneratingSet.standard(z1), (1,), 40, radius_max=14)
    assert prof.trend_class == "Linear"
    assert prof.known_values()[:14] == tuple(range(1, 15))
    kinds = [e.kind for e in prof.entries]
    assert kinds[:14] == ["exact"] * 14
    assert set(kinds[14:]) == {"bound"}  # subadditive closure extends the data
    assert all(e.value == e.n for e in prof.entries)


def test_heisenberg_central_profile_sqrt_shape():
    prof = distortion_profile(
        HEIS,
        GeneratingSet.standard(HEIS),
        (0, 0, 1),
        64,
        radius_max=12,
        certifier=base_q_certificate,
    )
    assert prof.trend_class == "Polynomial(1/2)"
    for e in prof.entries:
        assert e.value is not None
        if e.kind == "exact":
            assert e.lower == e.value


def test_bs_profile_logarithmic():
    for model, base in ((BS2, 2), (BS3, 3)):
        prof = distortion_profile(
            model,
            GeneratingSet.standard(model),
            (0, 1),
            64,
            radius_max=12,
            certifier=lambda m, base=base: bs_horner_certificate(m, base),
        )
        assert prof.trend_class == "Logarithmic"
        assert prof.trend.constant_global > 0


def test_auto_certifier_takes_positive_powers_of_the_distorted_generators():
    assert auto_certifier(BS3, WordExpr.parse("a^2"))(5) == bs_horner_certificate(10, 3)
    assert auto_certifier(HEIS, WordExpr.parse("s^3"))(4) == base_q_certificate(12)
    for model, text in [(BS3, "a^-2"), (HEIS, "s^-1"), (BS3, "b"), (BS3, "a a"),
                        (ZdModel(1), "e1")]:
        assert auto_certifier(model, WordExpr.parse(text)) is None, text


def test_distorted_element_powers_stay_distorted():
    # the square of the distorted generator, certified by doubled words
    prof = distortion_profile(
        BS2,
        GeneratingSet.standard(BS2),
        (0, 2),
        48,
        radius_max=10,
        certifier=lambda m: bs_horner_certificate(2 * m, 2),
    )
    assert prof.trend_class in ("Logarithmic", "Polynomial(1/2)")
    assert prof.trend_class != "Linear"


def test_profile_rejects_finite_order():
    z1 = ZdModel(1)
    with pytest.raises(ValueError):
        distortion_profile(z1, GeneratingSet.standard(z1), (0,), 5)


def test_profile_needs_a_positive_power():
    z1 = ZdModel(1)
    with pytest.raises(ValueError, match="profile needs max_power >= 1"):
        distortion_profile(z1, GeneratingSet.standard(z1), (1,), 0)


def test_profile_rejects_bad_certificate():
    z1 = ZdModel(1)
    with pytest.raises(ValueError):
        distortion_profile(
            z1,
            GeneratingSet.standard(z1),
            (1,),
            6,
            radius_max=3,
            certifier=lambda n: WordExpr((("e1", n + 1),)),
        )


sparse_bounds = st.lists(
    st.tuples(st.sampled_from(["none", "upper", "exact"]), st.integers(1, 60)),
    min_size=1,
    max_size=40,
)


@settings(max_examples=200, deadline=None)
@given(sparse_bounds)
@example([("none", 1), ("upper", 3), ("exact", 2), ("upper", 9)])
@example([("none", 1), ("none", 1), ("exact", 5), ("upper", 2)])
def test_subadditive_closure_matches_double_loop(spec):
    upper = {n: v for n, (kind, v) in enumerate(spec, 1) if kind != "none"}
    exact = {n: v for n, (kind, v) in enumerate(spec, 1) if kind == "exact"}
    _assert_closes_as_the_loop(upper, exact, len(spec))


def _assert_closes_as_the_loop(upper, exact, max_power):
    """The closure equals the double loop, value, type and error text; returns
    the loop's {n: bound}, or None when both raised."""
    try:
        expected = subadditive_closure_loop(upper, exact, max_power)
    except ValueError as exc:
        with pytest.raises(ValueError) as raised:
            grouplab._subadditive_closure(upper, exact, max_power)
        assert str(raised.value) == str(exc)
        return None
    known = grouplab._subadditive_closure(upper, exact, max_power)
    assert len(known) == max_power + 1
    assert {n: v for n, v in enumerate(known) if n and v != math.inf} == expected
    assert all(v == math.inf or type(v) is int for v in known[1:])
    return expected


@st.composite
def profile_bounds(draw):
    """(upper, exact, max_power) shaped like a distortion profile: c*log n or
    c*sqrt n plus noise, with gaps, a few lucky short bounds, and sparse
    exact entries that may sit above a split."""
    size = draw(st.integers(1, 300))
    shape = draw(st.sampled_from([math.log2, math.sqrt]))
    c = draw(st.integers(1, 6))
    noise = draw(st.integers(0, 3))
    gap = draw(st.sampled_from([0.0, 0.1, 0.5, 0.9]))
    exact_share = draw(st.sampled_from([0.0, 0.02, 0.1]))
    bump = draw(st.sampled_from([0, 2, c]))
    rng = random.Random(draw(st.integers(0, 2**32)))
    upper, exact = {}, {}
    for n in range(1, size + 1):
        if rng.random() < gap:
            continue
        value = 1 + int(c * shape(n))
        if rng.random() < exact_share:
            upper[n] = exact[n] = value + rng.randint(0, noise + bump)
        elif rng.random() < 0.05:  # a lucky short certificate
            upper[n] = rng.randint(1, value)
        else:
            upper[n] = value + rng.randint(0, noise)
    return upper, exact, size


@settings(max_examples=150, deadline=None)
@given(profile_bounds())
def test_subadditive_closure_matches_double_loop_at_profile_scale(case):
    _assert_closes_as_the_loop(*case)


@pytest.mark.parametrize(
    "model, element, depth, radius",
    [(BS2, "a", 1000, 9), (BS3, "a", 1000, 8), (HEIS, "s", 1400, 8)],
    ids=["bs-2/1000", "bs-3/1000", "heisenberg/1400"],
)
def test_word_metrics_profiles_close_as_the_double_loop(monkeypatch, model, element, depth, radius):
    # the bounds of the benchmark's distortion runs, closed both ways
    closure = grouplab._subadditive_closure
    recorded = []

    def record(upper, exact, max_power):
        recorded.append((upper, exact, max_power))
        return closure(upper, exact, max_power)

    monkeypatch.setattr(grouplab, "_subadditive_closure", record)
    word = WordExpr.parse(element)
    gens = GeneratingSet.standard(model)
    g = word.evaluate(model, gens.binding())
    distortion_profile(
        model, gens, g, depth, radius_max=radius, certifier=auto_certifier(model, word)
    )
    monkeypatch.undo()
    [case] = recorded
    assert len(_assert_closes_as_the_loop(*case)) == depth


def test_profile_rejects_closure_below_a_broken_ball(monkeypatch):
    # a ball that overstates |g^4| lets 1 + 3, or the certificate e1^4,
    # undercut it: the closure check must refuse the profile before any
    # entry is built
    z1 = ZdModel(1)
    true_ball = grouplab.cayley_ball

    def broken_ball(*args, **kwargs):
        ball = dict(true_ball(*args, **kwargs))
        ball[(4,)] = 9
        return ball

    monkeypatch.setattr(grouplab, "cayley_ball", broken_ball)
    for certifier in (None, lambda n: WordExpr((("e1", n),))):
        with pytest.raises(ValueError, match="upper-bound closure 4 beats the exact metric 9"):
            distortion_profile(
                z1, GeneratingSet.standard(z1), (1,), 6, radius_max=9, certifier=certifier
            )


@st.composite
def exact_metrics(draw):
    """(upper, exact, max_power): exact values on some powers up to 40,
    linear in n or drawn freely, at times with exact[n + m] raised above
    exact[n] + exact[m], and upper bounds holding them and some more."""
    spec = draw(st.lists(st.sampled_from(["none", "upper", "exact"]), min_size=2, max_size=40))
    linear = draw(st.booleans())
    value = st.integers(0, 20)
    exact = {n: n if linear else draw(value) for n, kind in enumerate(spec, 1) if kind == "exact"}
    upper = {n: draw(value) for n, kind in enumerate(spec, 1) if kind == "upper"}
    if draw(st.booleans()):
        n = draw(st.integers(1, len(spec) - 1))
        m = draw(st.integers(1, len(spec) - n))
        for k in (n, m):
            exact.setdefault(k, draw(value))
        exact[n + m] = exact[n] + exact[m] + draw(st.integers(1, 5))
    return {**upper, **exact}, exact, len(spec)


@settings(max_examples=300, deadline=None)
@given(exact_metrics())
@example(({1: 1, 3: 3, 4: 9}, {1: 1, 3: 3, 4: 9}, 6))
@example(({2: 1, 4: 3}, {2: 1, 4: 3}, 4))  # 2 + 2
def test_closure_refuses_an_exact_metric_that_is_not_subadditive(case):
    # a split of exact powers is a bound, so the closure itself refuses
    # exact[n + m] > exact[n] + exact[m], and the profile needs no pairwise check
    upper, exact, max_power = case
    if any(n + m in exact and exact[n + m] > exact[n] + exact[m] for n in exact for m in exact):
        with pytest.raises(ValueError, match="beats the exact metric"):
            grouplab._subadditive_closure(upper, exact, max_power)


def test_profile_without_certificate_beyond_radius():
    # l(g) itself exceeds the radius and nothing can be concluded
    z1 = ZdModel(1)
    prof = distortion_profile(
        z1, GeneratingSet.standard(z1), (5,), 6, radius_max=3
    )
    assert all(e.kind == "lower" for e in prof.entries)
    assert prof.trend_class == "Inconclusive"
    assert all(e.lower == 4 for e in prof.entries)


# -- certificates ---------------------------------------------------------------------------


def test_horner_certificate_frozen_example():
    w = bs_horner_certificate(5, 2)
    assert str(w) == "b^2 a b^-1 b^-1 a"
    assert w.length == 6
    assert w.evaluate(BS2, BS2.generators()) == (0, 5)


def test_horner_certificate_trivial_and_huge():
    assert str(bs_horner_certificate(1, 2)) == "a"
    assert bs_horner_certificate(1, 2).length == 1
    big = bs_horner_certificate(2**20, 2)
    assert big.length <= 82
    assert big.evaluate(BS2, BS2.generators()) == (0, 2**20)


def test_horner_certificate_rejects_bad_input():
    with pytest.raises(ValueError):
        bs_horner_certificate(0, 2)
    with pytest.raises(ValueError):
        bs_horner_certificate(5, 1)


@settings(max_examples=120, deadline=None)
@given(st.integers(min_value=1, max_value=4000), st.sampled_from([2, 3, 5]))
def test_horner_certificates_sound_and_bounded(m, base):
    model = BS1nModel(base)
    w = bs_horner_certificate(m, base)
    assert w.evaluate(model, model.generators()) == (0, m)
    assert w.length <= bs_horner_length_bound(m, base)


def _count_multiplies(monkeypatch, model):
    calls = [0]
    multiply = model.multiply

    def counted(a, b):
        calls[0] += 1
        return multiply(a, b)

    monkeypatch.setattr(model, "multiply", counted)
    return calls


def test_certificates_evaluate_with_one_multiply_per_token(monkeypatch):
    # work gate: the BS(1,n) and Heisenberg folds evaluate a certificate on
    # ints without a single product
    bs = BS1nModel(2)
    calls = _count_multiplies(monkeypatch, bs)
    m = 2**199 + 0x5DEECE66D * 3**70
    word = bs_horner_certificate(m, 2)
    assert word.evaluate(bs, bs.generators()) == (0, m)
    assert calls[0] == 0
    assert len(word.tokens) > 200 and calls[0] <= len(word.tokens) + 2

    heis = HeisenbergModel()
    calls = _count_multiplies(monkeypatch, heis)
    n = 10**39 + 12345
    word = base_q_certificate(n)
    assert word.evaluate(heis, heis.generators()) == (0, 0, n)
    assert calls[0] == 0
    assert calls[0] <= len(word.tokens) + 2


def test_packed_balls_search_without_a_multiply(monkeypatch):
    # work gate: Heisenberg and BS(1,n) over {a, b} step packed ints (kills
    # the mutant of `cayley_ball` that drops the Heisenberg packing)
    for model in (HeisenbergModel(), BS2):
        calls = _count_multiplies(monkeypatch, model)
        assert len(cayley_ball(model, GeneratingSet.standard(model), 4)) > 1
        assert calls[0] == 0


def test_words_ending_below_0_fold_without_a_multiply(monkeypatch):
    # work gate: the BS(1,n) fold scales r once at the end, a final k < 0
    # included, so neither word takes a product
    calls = _count_multiplies(monkeypatch, BS2)
    for text, value in [("a b^-3", (-3, 1)), ("b^-2 a", (-2, Fraction(1, 4)))]:
        got = WordExpr.parse(text).evaluate(BS2, BS2.generators())
        assert got == value and type(got[1]) is type(value[1])
    assert calls[0] == 0


def test_heisenberg_certificates_reject_bad_input():
    with pytest.raises(ValueError, match="power must be nonnegative"):
        heisenberg_square_certificate(-1)
    with pytest.raises(ValueError, match="certificate needs n >= 1"):
        base_q_certificate(0)


def test_square_certificate_values():
    assert heisenberg_square_certificate(0).length == 0
    # the empty word, not four zero-exponent tokens (kills the mutant of
    # `heisenberg_square_certificate` that drops `if n == 0`'s return)
    assert heisenberg_square_certificate(0) == WordExpr(())
    assert heisenberg_square_certificate(1).evaluate(HEIS, HEIS.generators()) == (0, 0, 1)
    w3 = heisenberg_square_certificate(3)
    assert w3.length == 12
    assert w3.evaluate(HEIS, HEIS.generators()) == (0, 0, 9)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=100))
def test_square_certificates_sound(n):
    w = heisenberg_square_certificate(n)
    assert w.length == 4 * n
    assert w.evaluate(HEIS, HEIS.generators()) == (0, 0, n * n)


def test_base_q_certificate_frozen_examples():
    w10 = base_q_certificate(10)
    assert w10.length == 18
    assert w10.evaluate(HEIS, HEIS.generators()) == (0, 0, 10)
    w1 = base_q_certificate(1)
    assert w1.length == 4
    assert w1.evaluate(HEIS, HEIS.generators()) == (0, 0, 1)
    w49 = base_q_certificate(49)
    assert w49.evaluate(HEIS, HEIS.generators()) == (0, 0, 49)
    assert w49.length <= 16 * 8


@settings(max_examples=120, deadline=None)
@given(st.integers(min_value=1, max_value=5000))
def test_base_q_certificates_sound_and_bounded(n):
    w = base_q_certificate(n)
    assert w.evaluate(HEIS, HEIS.generators()) == (0, 0, n)
    assert w.length <= 16 * (math.sqrt(n) + 1)


def test_commutator_power_check_examples():
    assert commutator_power_check(HEIS, 2, 3)
    assert commutator_power_check(HEIS, 1, 1)
    assert commutator_power_check(HEIS, 0, 5)
    assert commutator_power_check(HEIS, -4, 7)
    assert commutator_power_check(HEIS, -6, -6)


# -- growth formulas ---------------------------------------------------------------------------


def test_bass_guivarch_values():
    assert bass_guivarch_degree((2, 1)) == 4
    for d in range(1, 7):
        assert bass_guivarch_degree((d,)) == d
    for d in range(2, 7):
        assert bass_guivarch_degree((2,) + (1,) * (d - 1)) == min_growth_degree(d)
    with pytest.raises(ValueError):
        bass_guivarch_degree(())
    with pytest.raises(ValueError):
        bass_guivarch_degree((1, -1))


def test_min_growth_degree_values():
    assert [min_growth_degree(d) for d in range(2, 7)] == [4, 7, 11, 16, 22]
    with pytest.raises(ValueError):
        min_growth_degree(1)


def test_embedding_step_bound_values():
    assert embedding_step_bound(5) == 1
    assert embedding_step_bound(8) == 2
    assert embedding_step_bound(1) == 1
    assert embedding_step_bound(8.5) == 3
    with pytest.raises(ValueError):
        embedding_step_bound(0)


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=1, max_value=200))
def test_embedding_step_bound_is_least(c):
    d = embedding_step_bound(c)
    assert c <= (d + 1) * (d + 2) // 2 + 2
    if d > 1:
        assert c > d * (d + 1) // 2 + 2


@settings(max_examples=300, deadline=None)
@given(
    st.integers(min_value=1, max_value=10**6)
    | st.integers(min_value=1, max_value=4000).map(lambda q: q / 4)
    | st.floats(min_value=1e-300, max_value=1e6, allow_nan=False, allow_infinity=False)
)
@example(2.0000000001)
@example(5e-324)
def test_embedding_step_bound_matches_loop(x):
    assert embedding_step_bound(x) == embedding_step_bound_by_loop(x)


@pytest.mark.parametrize("x", [10**30, 1e300, 10**400])
def test_embedding_step_bound_of_huge_exponents(x):
    # the loop would take about sqrt(2x) steps; the closed form is exact
    # integer arithmetic, so each call returns at once
    d = embedding_step_bound(x)
    assert (d + 1) * (d + 2) // 2 + 2 >= x > d * (d + 1) // 2 + 2
