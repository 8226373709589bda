"""Growth-trend classification for nonnegative integer-indexed data.

Given values v(1..N) measured exactly, decide which of a few model shapes
fits the tail: zero, linear, logarithmic, a polynomial n^(1/d) with
2 <= d <= 6, or none of these.  The fit is judged on the window
[ceil(sqrt(N)), N], the top half of the index range on a log scale; an
arithmetic top half keeps too many small indices and lets C*log(n) imitate
a straight line.  Fits are least squares through the origin with relative
root-mean-square residual thresholds, checked in a fixed order so the
verdict is deterministic:

  1. all-zero data -> "zero"
  2. linear within 3%  -> "linear"   (tight gate, so log never masks it)
  3. log vs the best n^(1/d), d in 2..6, each gated at 10%: the smaller
     residual wins, except that a near-tie (log within a factor 1.25 of
     the best root) resolves to "logarithmic".  On windows this size a
     root basis can chase a log curve to within a few percent, so a strict
     minimum would flip on noise; the near-tie rule pins the slower-growth
     model, which is the weaker and therefore safer claim.
  4. linear within 10% -> "linear"   (loose gate, after the shapes above)
  5. otherwise "inconclusive"

Alongside the fit, two honest multiplicative constants are reported for
the winning basis b(n): the least C with v(n) <= C*b(n) on the window
(tail) and the least C with v(n) <= C*b(n) for every n >= 2 (global).
These are certified pointwise bounds, not regression artifacts.

Every other growth shape is decided here too: linear_floor (does a range
profile stay above its line through the origin on the same window?),
growth_degree (Cayley-ball degree and exponential test) and trend_label.
"""

from __future__ import annotations

import math

from .errors import record

TIGHT_LINEAR_RESIDUAL = 0.03
LOOSE_RESIDUAL = 0.10
LOG_NEAR_TIE_FACTOR = 1.25
POLY_ROOT_RANGE = range(2, 7)


def _basis(kind: str, root: int | None):
    """The basis of a linear, logarithmic or polynomial (n^(1/root)) fit."""
    if kind == "linear":
        return lambda n: float(n)
    if kind == "logarithmic":
        return lambda n: math.log(n)
    return lambda n: n ** (1.0 / root)


def _window(n_total: int) -> range:
    """The fit window [ceil(sqrt(N)), N] of v(1..N); it starts at 2 once N >= 2."""
    return range(math.isqrt(n_total - 1) + 1, n_total + 1)


def _through_origin(values, window, basis):
    """The points (basis(n), v(n)) on the window and the least-squares C of
    the line v = C*b through the origin; every basis is positive there."""
    pairs = [(basis(n), values[n - 1]) for n in window]
    return pairs, sum(b * v for b, v in pairs) / sum(b * b for b, _ in pairs)


def _relative_residual(values, window, basis):
    """Least-squares coefficient through the origin, then the residual of
    that fit relative to the data's own magnitude.  Returns (C, residual);
    residual is inf when the fit is degenerate or C is nonpositive."""
    pairs, c = _through_origin(values, window, basis)
    vv = sum(v * v for _, v in pairs)
    if vv == 0 or c <= 0:
        return c, math.inf
    ss = sum((v - c * b) ** 2 for b, v in pairs)
    return c, math.sqrt(ss / vv)


def _pointwise_constant(values, indices, basis):
    # every index is at least 2, where every basis is positive
    return max([0.0, *(values[n - 1] / basis(n) for n in indices)])


@record
class TrendFit:
    """Classification verdict with its certified constants.

    kind: "zero", "linear", "logarithmic", "polynomial", "inconclusive".
    root: the d of n^(1/d) when kind is "polynomial", else None.
    coefficient: least-squares C of the winning fit (None when inconclusive).
    residual: relative RMS residual of that fit (None when inconclusive).
    constant_tail: least C with v(n) <= C*basis(n) on the fit window.
    constant_global: same bound enforced for every n >= 2 in the data.
    window_start: first index of the fit window.
    """

    kind: str
    root: int | None
    coefficient: float | None
    residual: float | None
    constant_tail: float | None
    constant_global: float | None
    window_start: int

    def describe(self) -> str:
        if self.kind == "zero":
            return "identically zero"
        if self.kind == "inconclusive":
            return "no model shape fits within tolerance"
        name = {
            "linear": "C*n",
            "logarithmic": "C*log(n)",
            "polynomial": f"C*n^(1/{self.root})",
        }[self.kind]
        return (
            f"{name} with C~{self.coefficient:.4g} "
            f"(residual {self.residual:.3f}, "
            f"certified C<= {self.constant_global:.4g} for all n>=2)"
        )


def fit_trend(values) -> TrendFit:
    """Classify the growth shape of v(1..N) given as a sequence.

    Needs at least four data points so the window holds more than one
    index.  Values must be nonnegative; exact integers are expected but
    floats are accepted.  Values too large for float arithmetic raise a
    ValueError.
    """
    values = list(values)
    n_total = len(values)
    if n_total < 4:
        raise ValueError("trend classification needs at least 4 values")
    if any(v < 0 for v in values):
        raise ValueError("trend data must be nonnegative")
    try:
        return _classify(values)
    except OverflowError:
        raise ValueError(
            f"trend fit of {n_total} values overflows float arithmetic"
        ) from None


def _classify(values: list) -> TrendFit:
    """fit_trend on checked values."""
    n_total = len(values)
    window = _window(n_total)
    everything = range(2, n_total + 1)

    if all(v == 0 for v in values):
        return TrendFit("zero", None, None, None, 0.0, 0.0, window.start)

    def built(kind, root, c, resid):
        basis = _basis(kind, root)
        return TrendFit(
            kind,
            root,
            c,
            resid,
            _pointwise_constant(values, window, basis),
            _pointwise_constant(values, everything, basis),
            window.start,
        )

    lin_c, lin_resid = _relative_residual(values, window, _basis("linear", None))
    if lin_resid < TIGHT_LINEAR_RESIDUAL:
        return built("linear", None, lin_c, lin_resid)

    log_c, log_resid = _relative_residual(values, window, _basis("logarithmic", None))
    log_ok = log_resid < LOOSE_RESIDUAL

    poly_best = None
    for d in POLY_ROOT_RANGE:
        c, resid = _relative_residual(values, window, _basis("polynomial", d))
        if resid < LOOSE_RESIDUAL and (poly_best is None or resid < poly_best[2]):
            poly_best = (d, c, resid)

    if log_ok and (
        poly_best is None or log_resid <= LOG_NEAR_TIE_FACTOR * poly_best[2]
    ):
        return built("logarithmic", None, log_c, log_resid)
    if poly_best is not None:
        d, c, resid = poly_best
        return built("polynomial", d, c, resid)

    if lin_resid < LOOSE_RESIDUAL:
        return built("linear", None, lin_c, lin_resid)

    return TrendFit("inconclusive", None, None, None, None, None, window.start)


def linear_floor(values) -> bool:
    """Do v(1..N), N >= 1, stay above 95% of a rising line through the
    origin at every index of the fit window?  The basis is the integer n,
    so on integer data the least-squares slope is one exact division."""
    window = _window(len(values))
    _, slope = _through_origin(values, window, int)
    return slope > 0 and all(values[n - 1] >= 0.95 * slope * n for n in window)


def trend_label(trend: TrendFit | None) -> str:
    """The report name of a fit's kind; no fit is "Inconclusive"."""
    if trend is None:
        return "Inconclusive"
    if trend.kind == "linear":
        return "Linear"
    if trend.kind == "logarithmic":
        return "Logarithmic"
    if trend.kind == "polynomial":
        return f"Polynomial(1/{trend.root})"
    return "Inconclusive"


def _line_fit(xs, ys):
    """Least-squares slope/intercept and RMS residual."""
    n = len(xs)
    mx = sum(xs) / n
    my = sum(ys) / n
    sxx = sum((x - mx) ** 2 for x in xs)
    if sxx == 0:
        return 0.0, my, math.inf
    slope = sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sxx
    intercept = my - slope * mx
    resid = math.sqrt(
        sum((y - slope * x - intercept) ** 2 for x, y in zip(xs, ys)) / n
    )
    return slope, intercept, resid


def growth_degree(sizes, start: int) -> tuple[float, bool]:
    """(fitted degree, superpolynomial) of ball sizes |B(0..R)| on the
    window [start, R], as grouplab.BallGrowth describes them."""
    radius = len(sizes) - 1
    window = range(start, radius + 1)
    logs = [math.log(sizes[r]) for r in window]
    degree, _, poly_resid = _line_fit([math.log(r) for r in window], logs)
    _, _, exp_resid = _line_fit(list(window), logs)
    growing = sizes[radius] > sizes[start]
    return degree, bool(growing and exp_resid < poly_resid)
