"""Records (shiftlab.errors.record) against the frozen dataclasses they
replace.

Each record class is built beside its dataclass twin
(oracles.dataclass_twin) from the same arguments, and the two must agree
on construction, every __post_init__ check, repr, ==, hash, frozenness
and deep copies.
"""

import copy
import dataclasses
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shiftlab.audit import CONSISTENT, VIOLATION, AuditReport
from shiftlab.blockcode import LocalRule, RangeProfile
from shiftlab.cli import RunResult
from shiftlab.config import Budgets, ExperimentConfig, Operation, Param, RunSpec
from shiftlab.errors import asdict, field, record, replace
from shiftlab.grouplab import (
    BallGrowth,
    DistortionProfile,
    GeneratingSet,
    ProfileEntry,
    WordExpr,
    ZdModel,
)
from shiftlab.shiftlang import Alphabet, ComplexityProfile, MorseHedlundVerdict
from shiftlab.spacetime import CyrKraVerdict, SpacetimePatch
from shiftlab.trends import TrendFit

from oracles import dataclass_twin

# one valid construction of every record class in the package
VALID = {
    AuditReport: ("x <= y", CONSISTENT, (1, 2), (1, 2), (3, 4)),
    LocalRule: (1, {"000": "0"}),
    RangeProfile: ((1, 2), Fraction(1), "linear"),
    RunResult: ("key", "ok", "csv", "body"),
    Budgets: (10, 20, 3),
    RunSpec: ("a", "complexity", {"depth": 3}),
    ExperimentConfig: ({}, {}, {}, (), "out", Budgets()),
    Param: ("positive", 1),
    Operation: ({"depth": Param("positive", 1)},),
    GeneratingSet: (ZdModel(2), (("a", (1, 0)), ("b", (0, 1)))),
    WordExpr: ((("a", 1), ("b", -2)),),
    BallGrowth: ((1, 5, 13), 2.0, False, 1),
    ProfileEntry: (1, 1, "exact", 1),
    DistortionProfile: ((), None, "bounded", 3),
    Alphabet: (("0", "1"),),
    ComplexityProfile: ((2, 3, 4), (0.69, 0.55, 0.46)),
    MorseHedlundVerdict: (None, 4),
    SpacetimePatch: (2, 1, ("01",), "x"),
    CyrKraVerdict: ("AboveThreshold", None, 3, 4),
    TrendFit: ("zero", None, None, None, None, None, 2),
}
TWINS = {cls: dataclass_twin(cls) for cls in VALID}
DEFAULTED = {
    cls: {
        f.name for f in dataclasses.fields(twin)
        if (f.default, f.default_factory) != (dataclasses.MISSING, dataclasses.MISSING)
    }
    for cls, twin in TWINS.items()
}

# one construction that fails each __post_init__ check
INVALID = [
    (AuditReport, ("x", "Maybe", (), (), ())),
    (AuditReport, ("x", CONSISTENT, (1,), (), (1,))),
    (AuditReport, ("x", VIOLATION, (1,), (2,), (1,))),
    (AuditReport, ("x", CONSISTENT, (1,), (1,), (2,), (1, 2, 1))),
    (RangeProfile, ((), Fraction(0), "linear")),
    (RangeProfile, ((2, 2), Fraction(2), "linear")),
    (Budgets, (10, 1.5, 3)),
    (Budgets, (10, 20, 0)),
    (RunSpec, ("bad name", "complexity")),
    (RunSpec, ("a", "")),
    (RunSpec, ("a", "complexity", {}, "yes")),
    (GeneratingSet, (ZdModel(2), ())),
    (GeneratingSet, (ZdModel(2), (("a", (1, 0)), ("a", (0, 1))))),
    (GeneratingSet, (ZdModel(2), (("e", (0, 0)),))),
    (Alphabet, ((),)),
    (Alphabet, (("01",),)),
    (Alphabet, (("0", "0"),)),
    (ComplexityProfile, ((), ())),
    (ComplexityProfile, ((0,), (0.0,))),
    (ComplexityProfile, ((3, 2), (1.0, 0.3))),
    (ComplexityProfile, ((2, 5), (0.7, 0.8))),
    (SpacetimePatch, (2, 2, ("01",))),
    (SpacetimePatch, (2, 1, ("0",))),
]


def outcome(make):
    """make()'s value, or the type and message of what it raised."""
    try:
        return make()
    except Exception as exc:  # every failure is compared, whatever it is
        kind = AttributeError if isinstance(exc, AttributeError) else type(exc)
        return kind, str(exc)


def unaddressed(rec) -> str:
    return re.sub(" at 0x[0-9a-f]+", "", repr(rec))


def same(rec, twin):
    """The observable behaviour of a record equals its twin's."""
    if isinstance(rec, tuple):
        assert rec == twin
        return
    assert type(rec).__name__ == type(twin).__name__
    assert repr(rec) == repr(twin)
    assert outcome(lambda: hash(rec)) == outcome(lambda: hash(twin))
    assert (rec == rec) and (twin == twin)
    assert rec != twin and twin != rec
    for name in type(rec)._fields:
        assert outcome(lambda: setattr(rec, name, 0)) == outcome(lambda: setattr(twin, name, 0))
    copied = copy.deepcopy(rec)
    # a sentinel such as config.REQUIRED copies to a new object
    assert type(copied) is type(rec) and unaddressed(copied) == unaddressed(rec)
    assert outcome(lambda: copied == rec) == outcome(lambda: copy.deepcopy(twin) == twin)


@pytest.mark.parametrize("cls", VALID, ids=lambda cls: cls.__name__)
def test_valid_records_match_their_dataclass_twins(cls):
    args = VALID[cls]
    same(cls(*args), TWINS[cls](*args))
    keywords = dict(zip(cls._fields, args))
    same(cls(**keywords), TWINS[cls](**keywords))


@pytest.mark.parametrize("cls, args", INVALID, ids=lambda v: getattr(v, "__name__", ""))
def test_every_post_init_check_raises_as_the_dataclass_did(cls, args):
    expected = outcome(lambda: TWINS[cls](*args))
    assert isinstance(expected, tuple) and expected[0] is not AttributeError
    assert outcome(lambda: cls(*args)) == expected


VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-2, 5),
    st.text("01a", max_size=3),
    st.lists(st.integers(0, 4), max_size=3).map(tuple),
    st.lists(st.text("01", min_size=1, max_size=1), max_size=3).map(tuple),
)


@st.composite
def calls(draw):
    """A record class and one call to it: some fields positional, the rest
    by keyword or, when it has a default, left out."""
    cls = draw(st.sampled_from(list(VALID)))
    names = cls._fields
    # mostly the valid value, so that most calls pass __post_init__
    values = [draw(VALUES) if draw(st.integers(0, 3)) == 0 else v for v in VALID[cls]]
    values += [draw(VALUES) for _ in names[len(values):]]
    given = draw(st.integers(0, len(names)))
    args, kwargs = values[:given], {}
    for name, value in zip(names[given:], values[given:]):
        if name in DEFAULTED[cls] and draw(st.booleans()):
            continue  # a defaulted field left out
        kwargs[name] = value
    return cls, args, kwargs, draw(st.sampled_from(names)), draw(VALUES)


@settings(max_examples=300, deadline=None)
@given(calls())
def test_records_match_their_dataclass_twins(call):
    cls, args, kwargs, changed, value = call
    rec = outcome(lambda: cls(*args, **kwargs))
    twin = outcome(lambda: TWINS[cls](*args, **kwargs))
    same(rec, twin)
    if isinstance(rec, tuple):
        return
    other = outcome(lambda: replace(rec, **{changed: value}))
    other_twin = outcome(lambda: dataclasses.replace(twin, **{changed: value}))
    same(other, other_twin)
    if not isinstance(other, tuple):
        assert outcome(lambda: rec == other) == outcome(lambda: twin == other_twin)
        assert outcome(lambda: hash(rec) == hash(other)) == outcome(
            lambda: hash(twin) == hash(other_twin)
        )


def test_patches_compare_without_their_source_word():
    a, b = SpacetimePatch(1, 1, ("0",), "x"), SpacetimePatch(1, 1, ("0",), "y")
    assert a == b and hash(a) == hash(b) == hash((1, 1, ("0",)))
    assert SpacetimePatch(1, 1, ("0",)).source_word == ""


def test_one_field_records_hash_as_a_one_tuple():
    tokens = (("a", 1),)
    assert hash(WordExpr(tokens)) == hash((tokens,))


def test_missing_unknown_and_surplus_arguments_are_type_errors():
    with pytest.raises(TypeError, match="ProfileEntry\\(\\) missing argument 'lower'"):
        ProfileEntry(1, 1, "exact")
    with pytest.raises(TypeError, match="takes only the fields n, value, kind, lower"):
        ProfileEntry(1, 1, "exact", 1, 1)
    with pytest.raises(TypeError, match="takes only the fields"):
        ProfileEntry(1, 1, "exact", lower=1, upper=2)
    with pytest.raises(TypeError, match="takes only the fields"):
        ProfileEntry(1, 1, "exact", 1, n=2)


def test_each_default_factory_call_builds_a_fresh_value():
    a, b = ExperimentConfig(), ExperimentConfig()
    assert a.shifts == {} and a.shifts is not b.shifts and a.budgets == Budgets()
    assert RunSpec("a", "b").params is not RunSpec("a", "b").params


def test_deleting_a_field_is_refused():
    with pytest.raises(AttributeError, match="cannot assign to field 'n'"):
        del ProfileEntry(1, 1, "exact", 1).n


def test_a_full_positional_call_calls_no_default_factory():
    made = []

    @record
    class Counted:
        a: int
        b: list = field(default_factory=lambda: made.append(1) or [])

    assert Counted(1, [2]).b == [2] and made == []
    assert Counted(1).b == [] and made == [1]
    assert Counted(b=[3], a=1) == Counted(1, [3])


def test_asdict_and_replace():
    budgets = Budgets(10, 20, 3)
    assert asdict(budgets) == {"table_rows": 10, "bfs_states": 20, "radius_cap": 3}
    assert replace(budgets, radius_cap=4) == Budgets(10, 20, 4)
    assert replace(budgets) == budgets and replace(budgets) is not budgets
    with pytest.raises(TypeError):
        replace(budgets, depth=1)
