"""Shape classification on clean, noisy, and adversarial data."""

import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from shiftlab.blockcode import LINEAR_LOWER_BOUNDED, RangeProfile
from shiftlab.trends import (
    LOOSE_RESIDUAL,
    TIGHT_LINEAR_RESIDUAL,
    TrendFit,
    fit_trend,
    growth_degree,
    linear_floor,
    trend_label,
)


def test_zero_data():
    fit = fit_trend([0] * 10)
    assert fit.kind == "zero"
    assert fit.constant_global == 0.0


def test_exact_linear():
    fit = fit_trend([3 * n for n in range(1, 21)])
    assert fit.kind == "linear"
    assert fit.coefficient == pytest.approx(3.0)
    assert fit.residual < 1e-12
    assert fit.constant_tail == pytest.approx(3.0)
    assert fit.constant_global == pytest.approx(3.0)


def test_short_linear_not_mistaken_for_log():
    # on 6 points a log curve can chase a line closely; the tight linear
    # gate must win before the log gate is consulted
    fit = fit_trend([float(n) for n in range(1, 7)])
    assert fit.kind == "linear"


def test_exact_log_curve():
    fit = fit_trend([2.5 * math.log(n + 1) for n in range(1, 41)])
    assert fit.kind == "logarithmic"


def test_integer_log_steps():
    # ceil(log2(m)) staircase: certified log shape with jumps
    data = [max(1, math.ceil(math.log2(m))) for m in range(2, 66)]
    fit = fit_trend(data)
    assert fit.kind == "logarithmic"
    # global constant is attained at small m where the staircase overshoots
    assert fit.constant_global >= fit.constant_tail > 0


def test_square_root_shape():
    fit = fit_trend([4.3 * math.sqrt(n) for n in range(1, 41)])
    assert fit.kind == "polynomial"
    assert fit.root == 2
    assert fit.coefficient == pytest.approx(4.3)


def test_cube_root_shape():
    fit = fit_trend([2.0 * n ** (1 / 3) for n in range(1, 41)])
    assert fit.kind == "polynomial"
    assert fit.root == 3


def test_sqrt_not_classified_as_log():
    data = [4.3 * math.sqrt(n) for n in range(1, 41)]
    fit = fit_trend(data)
    assert fit.kind != "logarithmic"


def test_log_not_classified_as_sqrt():
    data = [3.0 * math.log(n) if n > 1 else 0.0 for n in range(1, 64)]
    fit = fit_trend(data)
    assert fit.kind == "logarithmic"


def test_jagged_data_inconclusive():
    data = [1.0 if n % 2 else 20.0 * n for n in range(1, 30)]
    assert fit_trend(data).kind == "inconclusive"


def test_exponential_data_inconclusive():
    assert fit_trend([2.0**n for n in range(1, 20)]).kind == "inconclusive"


def test_linear_with_mild_noise_still_linear():
    data = [2.0 * n + (0.3 if n % 2 else -0.3) for n in range(1, 25)]
    assert fit_trend(data).kind == "linear"


def test_loosely_linear_data_falls_back_to_linear():
    # the line misses by about 9%: too far for the tight linear test, and
    # no log or root shape fits within the loose residual
    fit = fit_trend([2, 2, 4, 4, 6, 6, 8, 8])
    assert fit.kind == "linear"
    assert TIGHT_LINEAR_RESIDUAL < fit.residual < LOOSE_RESIDUAL


def test_minimum_data_requirement():
    with pytest.raises(ValueError):
        fit_trend([1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        fit_trend([1.0, -2.0, 3.0, 4.0])


def test_float_overflow_is_a_value_error():
    # the squared residuals of entries near 10**200 overflow a float
    with pytest.raises(ValueError, match="^trend fit of 8 values overflows float arithmetic$"):
        fit_trend([10**200] * 4 + [3] * 4)


def test_growth_degree_on_a_one_radius_window():
    # one point fits no line: degree 0 and not superpolynomial
    assert growth_degree([1, 3, 5, 9], 3) == (0.0, False)


def test_window_is_top_half_log_scale():
    fit = fit_trend([float(n) for n in range(1, 26)])
    assert fit.window_start == 5  # ceil(sqrt(25))


def test_certified_constants_are_pointwise_bounds():
    data = [2.0 * n for n in range(1, 16)]
    data[2] = 50.0  # spike at n = 3, outside the fit window
    fit = fit_trend(data)
    assert fit.kind == "linear"
    assert fit.constant_global >= 50.0 / 3
    assert fit.constant_tail == pytest.approx(2.0)


def test_describe_strings():
    assert "zero" in fit_trend([0] * 8).describe()
    assert "C*n" in fit_trend([2.0 * n for n in range(1, 10)]).describe()
    long_log = [3.0 * math.log(n + 1) for n in range(1, 40)]
    assert "log" in fit_trend(long_log).describe()
    assert "no model" in fit_trend([2.0**n for n in range(1, 12)]).describe()


@settings(max_examples=50, deadline=None)
@given(st.floats(min_value=0.1, max_value=50.0), st.integers(min_value=8, max_value=60))
def test_pure_lines_always_linear(slope, length):
    fit = fit_trend([slope * n for n in range(1, length + 1)])
    assert fit.kind == "linear"
    assert fit.coefficient == pytest.approx(slope, rel=1e-9)


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=2, max_value=6), st.integers(min_value=25, max_value=60))
def test_pure_roots_always_polynomial(d, length):
    fit = fit_trend([5.0 * n ** (1.0 / d) for n in range(1, length + 1)])
    assert fit.kind == "polynomial"
    assert fit.root == d


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.floats(min_value=0.0, max_value=1e6), min_size=4, max_size=50)
)
def test_constants_really_bound_the_data(values):
    fit = fit_trend(values)
    if fit.kind in ("zero", "inconclusive"):
        return
    basis = {
        "linear": lambda n: float(n),
        "logarithmic": lambda n: math.log(n),
        "polynomial": lambda n: n ** (1.0 / fit.root),
    }[fit.kind]
    for n in range(2, len(values) + 1):
        if basis(n) > 0 and fit.constant_global != math.inf:
            assert values[n - 1] <= fit.constant_global * basis(n) * (1 + 1e-9)


# -- range-profile verdicts and labels against the blockcode/grouplab originals --


@st.composite
def subadditive_profiles(draw):
    """Nonnegative subadditive profiles of 1-80 entries.  Each entry after
    the first is its cap less a drop: the least split sum (near-linear when
    the drops are small) or the entry before it (falling).  A first entry 0
    gives the all-zero profile."""
    size = draw(st.integers(1, 80))
    entries = [draw(st.integers(0, 10**30))]
    falling = draw(st.booleans())
    scale = draw(st.sampled_from((0, 1, 3, 10**6, 10**30)))
    drops = draw(st.lists(st.integers(0, scale), min_size=size - 1, max_size=size - 1))
    for n, drop in enumerate(drops, start=2):
        cap = entries[-1] if falling else min(
            entries[k - 1] + entries[n - k - 1] for k in range(1, n // 2 + 1)
        )
        entries.append(max(cap - drop, 0))
    return entries


@settings(max_examples=300, deadline=None)
@given(subadditive_profiles())
@example([5]).via("one entry")
@example([0]).via("one zero entry")
@example([3, 6]).via("two entries")
@example([2, 3, 5]).via("three entries")
@example([0] * 40).via("all zero")
@example([9, 7, 4, 2, 1, 1, 0, 0]).via("falling")
def test_range_classification_matches_the_blockcode_original(entries):
    assert RangeProfile.from_entries(entries).classification == oracles.classify_entries(
        entries
    )


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=10**30), min_size=1, max_size=80))
def test_linear_floor_matches_the_blockcode_original(values):
    assert linear_floor(values) == (oracles.classify_entries(values) == LINEAR_LOWER_BOUNDED)


@pytest.mark.parametrize(
    "kind, root, label",
    [
        (None, None, "Inconclusive"),
        ("zero", None, "Inconclusive"),
        ("linear", None, "Linear"),
        ("logarithmic", None, "Logarithmic"),
        ("polynomial", 2, "Polynomial(1/2)"),
        ("polynomial", 6, "Polynomial(1/6)"),
        ("inconclusive", None, "Inconclusive"),
    ],
)
def test_trend_label_names_every_kind(kind, root, label):
    trend = None if kind is None else TrendFit(kind, root, None, None, None, None, 2)
    assert trend_label(trend) == label == oracles.trend_class_label(trend)
