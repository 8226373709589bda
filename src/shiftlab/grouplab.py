"""Exactly evaluable group models, word metrics, and distortion certificates.

Three families are modeled with injective canonical forms: free abelian
groups as integer tuples, the integer Heisenberg group as triples with its
polynomial product, and the solvable affine groups BS(1,n) as pairs
(exponent, translation part) acting by t -> n^k t + m.  Exact arithmetic
makes Cayley-ball breadth-first search a genuine metric oracle, and the
explicit certificate words (Horner words in BS(1,n), commutator words in
Heisenberg) give certified upper bounds far beyond any searchable ball.
Z^d over the basis ±e_i needs no search: word length there is the l1
norm, so its balls are answered by formulas, and their state budget trips
at the radius where the search's would.  The module loads trends on its
first fit, and fractions only where a Fraction is built or recognized: a
BS(1,n) translation that is not an int, a mixed token's geometric sum, or
embedding_step_bound's exponent.  A word over {a, b} folds on ints alone.
"""

from __future__ import annotations

import math
import re
from bisect import bisect_right
from collections.abc import Callable, Mapping
from functools import cache, partial
from itertools import chain, filterfalse, repeat
from operator import add, sub
from typing import TYPE_CHECKING

from .errors import (
    DEFAULT_BFS_STATES,
    DEFAULT_RADIUS,
    MIN_GROWTH_RADIUS,
    BudgetExceededError,
    record,
)

if TYPE_CHECKING:
    from .trends import TrendFit


@cache
def _fraction():
    """fractions.Fraction, imported on the first call, so a process that
    builds and recognizes no Fraction never loads fractions, and no import
    statement runs per multiply."""
    from fractions import Fraction

    return Fraction


# -- models ----------------------------------------------------------------


class GroupModel:
    """Exact group arithmetic on hashable canonical elements.

    fold is the one word evaluator, and each model implements it; power(a,
    e) is the one-token word a^e.
    """

    name: str

    def identity(self):
        raise NotImplementedError

    def multiply(self, a, b):
        raise NotImplementedError

    def inverse(self, a):
        raise NotImplementedError

    def generators(self) -> dict:
        """Named standard generators, in a fixed order."""
        raise NotImplementedError

    def fold(self, tokens, binding):
        """The product of binding[name]^e over the (name, e) tokens."""
        raise NotImplementedError

    def power(self, a, e: int):
        return self.fold((("a", e),), {"a": a})

    def descriptor(self) -> tuple:
        raise NotImplementedError

    def __eq__(self, other):
        return isinstance(other, GroupModel) and self.descriptor() == other.descriptor()

    def __hash__(self):
        return hash(self.descriptor())

    def __repr__(self):
        return f"<{type(self).__name__} {self.name}>"


class ZdModel(GroupModel):
    """Z^d with componentwise addition; generators e1..ed."""

    def __init__(self, dimension: int):
        if dimension < 1:
            raise ValueError("dimension must be >= 1")
        self.dimension = dimension
        self.name = f"Z^{dimension}"

    def identity(self):
        return (0,) * self.dimension

    def multiply(self, a, b):
        return tuple(map(add, a, b))

    def inverse(self, a):
        return tuple(-x for x in a)

    def fold(self, tokens, binding):
        acc = self.identity()
        for name, e in tokens:
            acc = tuple(x + e * y for x, y in zip(acc, binding[name]))
        return acc

    def generators(self):
        basis = {}
        for i in range(self.dimension):
            e = [0] * self.dimension
            e[i] = 1
            basis[f"e{i + 1}"] = tuple(e)
        return basis

    def descriptor(self):
        return ("zd", self.dimension)


class HeisenbergModel(GroupModel):
    """Integer Heisenberg group on triples (x, y, z).

    (x,y,z)(x',y',z') = (x+x', y+y', z+z'+x*y'); the generator s = (0,0,1)
    is central, u = (1,0,0) and t = (0,1,0) satisfy u t u^-1 t^-1 = s.
    """

    name = "Heisenberg"

    def identity(self):
        return (0, 0, 0)

    def multiply(self, a, b):
        return (a[0] + b[0], a[1] + b[1], a[2] + b[2] + a[0] * b[1])

    def inverse(self, a):
        x, y, z = a
        return (-x, -y, -z + x * y)

    def fold(self, tokens, binding):
        # (a,b,c)^e = (e*a, e*b, e*c + a*b*e(e-1)/2), for e <= 0 too: each
        # of the e(e-1)/2 ordered pairs of copies adds a*b to the centre.
        # Each token's power multiplies in on three running ints.
        x = y = z = 0
        for name, e in tokens:
            a, b, c = binding[name]
            ey = e * b
            z += e * c + a * b * e * (e - 1) // 2 + x * ey
            x += e * a
            y += ey
        return (x, y, z)

    def generators(self):
        return {"u": (1, 0, 0), "t": (0, 1, 0), "s": (0, 0, 1)}

    def descriptor(self):
        return ("heisenberg",)


class BS1nModel(GroupModel):
    """BS(1,n) = <a, b | b a b^-1 = a^n> as affine maps t -> n^k t + m.

    Elements are pairs (k, m) with k an integer and m in Z[1/n], composed
    by (k1,m1)(k2,m2) = (k1+k2, n^k1 * m2 + m1).  The translation part is
    kept as a plain int whenever it is integral and as a Fraction
    otherwise.  Words are evaluated by fold, Horner's rule with one signed
    pending exponent, scaled once at the end, on ints for words over
    integral generators.  A zero translation is never scaled, so a huge
    dilation costs no power of n.
    """

    def __init__(self, n: int):
        if n < 2:
            raise ValueError("BS(1,n) needs n >= 2")
        self.n = n
        self.name = f"BS(1,{n})"

    @staticmethod
    def _canonical(m):
        if type(m) is int:
            return m
        if type(m) is _fraction() and m.denominator == 1:
            return int(m)
        return m

    def identity(self):
        return (0, 0)

    def _scale(self, k: int, m):
        if not m:
            return 0
        if k >= 0:
            return self._canonical(self.n**k * m)
        return self._canonical(_fraction()(m, self.n ** (-k)))

    def multiply(self, a, b):
        k1, m1 = a
        k2, m2 = b
        return (k1 + k2, self._canonical(self._scale(k1, m2) + m1))

    def inverse(self, a):
        k, m = a
        return (-k, self._scale(-k, -m))

    def fold(self, tokens, binding):
        """Horner's rule: the product so far is (k, r * n^(k+p)).

        A token (d, m)^e is (d*e, m*s), with s = e when d = 0 and the
        geometric sum s = (n^(d*e) - 1)/(n^d - 1) otherwise.  When m*e is
        nonzero it pays a pending p > 0 into r and adds m*s*n^-p to r;
        then, when d is nonzero, it adds d*e to k and, while r is nonzero,
        takes d*e from p, so the translation stays put and b^e after a
        translation leaves p below 0 and divides nothing.  The end scales
        r once by n^(k+p), a Fraction when k+p < 0, so a dilation alone
        takes no power of n and a word over {a, b} folds on ints.
        """
        n = self.n
        k = r = p = 0
        for name, e in tokens:
            dk, m = binding[name]
            if m and e:
                if p > 0:
                    r, p = r * n**p, 0
                if dk:
                    q = _fraction()(n)
                    s = (q ** (dk * e) - 1) / (q**dk - 1)
                else:
                    s = e
                r += m * s * n**-p
            if dk:
                k += dk * e
                if r:
                    p -= dk * e
        return (k, self._scale(k + p, r))

    def generators(self):
        return {"a": (0, 1), "b": (1, 0)}

    def descriptor(self):
        return ("bs1n", self.n)


# -- generating sets and words -----------------------------------------------


@record
class GeneratingSet:
    """Named group elements, closed under inversion for metric use.

    base pairs (name, element) list the declared generators; labeled()
    appends the formal inverses (suffix ^-1), deduplicated by value so an
    involution contributes a single move.
    """

    model: GroupModel
    base: tuple

    def __post_init__(self):
        if not self.base:
            raise ValueError("generating set must be nonempty")
        names = [name for name, _ in self.base]
        if len(set(names)) != len(names):
            raise ValueError("generator names must be distinct")
        ident = self.model.identity()
        for name, element in self.base:
            if element == ident:
                raise ValueError(f"generator {name} is the identity")

    @classmethod
    def standard(cls, model: GroupModel) -> "GeneratingSet":
        return cls(model, tuple(model.generators().items()))

    @classmethod
    def from_named(cls, model: GroupModel, named: dict) -> "GeneratingSet":
        return cls(model, tuple(named.items()))

    def binding(self) -> dict:
        return dict(self.base)

    def labeled(self):
        """(label, element) pairs including inverses, duplicates removed."""
        out = []
        seen = set()
        for name, element in self.base:
            if element not in seen:
                seen.add(element)
                out.append((name, element))
        for name, element in self.base:
            inv = self.model.inverse(element)
            if inv not in seen:
                seen.add(inv)
                out.append((f"{name}^-1", inv))
        return tuple(out)


_TOKEN_RE = re.compile(r"^([A-Za-z_][A-Za-z0-9_]*)(?:\^(-?\d+))?$")


@record
class WordExpr:
    """A formal word in named generators: tokens (name, exponent).

    Length counts letters with multiplicity, so it is the word's metric
    cost, not its token count.
    """

    tokens: tuple

    @property
    def length(self) -> int:
        return sum(abs(e) for _, e in self.tokens)

    @classmethod
    def parse(cls, text: str) -> "WordExpr":
        tokens = []
        for chunk in text.split():
            m = _TOKEN_RE.match(chunk)
            if not m:
                raise ValueError(f"malformed word token {chunk!r}")
            name, exp = m.group(1), m.group(2)
            tokens.append((name, 1 if exp is None else int(exp)))
        return cls(tuple(tokens))

    def evaluate(self, model: GroupModel, binding: dict):
        for name, _ in self.tokens:
            if name not in binding:
                raise ValueError(f"word uses unbound generator {name!r}")
        return model.fold(self.tokens, binding)

    def __str__(self):
        parts = []
        for name, exp in self.tokens:
            parts.append(name if exp == 1 else f"{name}^{exp}")
        return " ".join(parts)


# -- Cayley-ball search ---------------------------------------------------------


def cayley_ball(
    model: GroupModel,
    gens: GeneratingSet,
    radius_max: int,
    state_budget: int = DEFAULT_BFS_STATES,
    targets=None,
) -> Mapping:
    """Exact distances to every element within radius_max, by level BFS.

    Returns a read-only Mapping {element: word length} whose values()
    run in nondecreasing order, the search's level order.  With targets
    given, the search stops as soon as every target has a distance (the
    recorded distances are still exact).  Exceeding the state budget is an
    error naming the last completed radius; distances already assigned at
    that point were exact, but the partial ball is deliberately not
    returned.

    Z^d over the basis ±e_i, in any order and under any names, is not
    searched: word length there is the l1 norm, and the ball is answered
    by formulas (_L1Ball), with the same size, the same found keys and
    the budget error at the same radius as the search.  The Heisenberg
    group, and BS(1,n) over its standard {a, b}, search packed integer
    states (_heisenberg_packing, _bs_packing): each generator moves a
    whole level at once, and the Mapping encodes lookup keys and decodes
    iterated ones.
    BS(1,n) is searched by left multiplication.  That gives the same
    distances as right multiplication: both reach exactly the products of
    r generators at level r, and B(r) = S^r either way.  Any other model
    or set, Z^d over moves other than ±e_i included, or a generator with
    a non-int entry steps by model.multiply, and the ball is a plain dict.
    """
    if radius_max < 0:
        raise ValueError("radius_max must be nonnegative")
    if gens.model != model:
        raise ValueError("generating set belongs to a different model")
    moves = [element for _, element in gens.labeled()]
    if type(model) is ZdModel and _is_unit_basis(model, moves):
        return _l1_ball(model.dimension, radius_max, state_budget, targets)
    packed = None
    if type(model) is HeisenbergModel:
        packed = _heisenberg_packing(moves, radius_max)
    elif type(model) is BS1nModel:
        packed = _bs_packing(model.n, moves, radius_max, state_budget)
    if packed is None:
        multiply = model.multiply
        steps = [
            lambda level, m=m: map(multiply, level, repeat(m)) for m in moves
        ]
        wanted = None if targets is None else set(targets)
        return _level_search(model.identity(), steps, radius_max, state_budget, wanted)
    start, steps, encode, decode = packed
    wanted = None if targets is None else set(map(encode, targets))
    dist = _level_search(start, steps, radius_max, state_budget, wanted)
    return _PackedBall(dist, encode, decode)


def _level_search(start, steps, radius_max: int, state_budget: int, wanted) -> dict:
    """{state: distance from start} over breadth-first levels.

    Each step maps a whole level to its neighbours along one generator,
    injectively, and states already seen are dropped as they are
    generated.  The budget is checked after each step; it trips exactly
    when a state-at-a-time search would, with the same count.  A wanted
    state that no level can reach (None for a key outside a packing box)
    keeps the search going to radius_max.
    """
    dist = {start: 0}
    if wanted is not None and wanted <= dist.keys():
        return dist
    # a state-at-a-time search adds the identity before it checks anything
    cap = max(state_budget, 1)
    frontier = [start]
    for radius in range(1, radius_max + 1):
        nxt = []
        for step in steps:
            fresh = list(filterfalse(dist.__contains__, step(frontier)))
            dist.update(dict.fromkeys(fresh, radius))
            if len(dist) > cap:
                raise BudgetExceededError(
                    "bfs states", state_budget, cap + 1, f"last completed radius {radius - 1}"
                )
            nxt += fresh
        if wanted is not None:
            wanted = set(filterfalse(dist.__contains__, wanted))
            if not wanted:
                return dist
        frontier = nxt
    return dist


class _PackedBall(Mapping):
    """Read-only {element: distance} over a ball kept under packed keys.

    Lookups encode the key, and a key outside the packing box is missing;
    iteration decodes lazily; values() is the packed dict's.
    """

    __slots__ = ("_dist", "_encode", "_decode")

    def __init__(self, dist: dict, encode, decode):
        self._dist, self._encode, self._decode = dist, encode, decode

    def __len__(self):
        return len(self._dist)

    def __iter__(self):
        return map(self._decode, self._dist)

    def __getitem__(self, key):
        try:
            return self._dist[self._encode(key)]
        except KeyError:
            raise KeyError(key) from None

    def get(self, key, default=None):
        return self._dist.get(self._encode(key), default)

    def values(self):
        return self._dist.values()


def _is_unit_basis(model: ZdModel, moves) -> bool:
    """Are the moves exactly the int vectors ±e_1, .., ±e_d?"""
    basis = model.generators().values()
    units = {*basis, *map(model.inverse, basis)}
    return all(isinstance(x, int) for g in moves for x in g) and set(moves) == units


def _l1_norm(g, dimension: int):
    """The l1 norm of g when it is a d-tuple of isinstance ints, else None."""
    if isinstance(g, tuple) and len(g) == dimension and all(isinstance(x, int) for x in g):
        return sum(map(abs, g))
    return None


def _l1_ball_size(dimension: int, radius: int) -> int:
    """|B(r)| of Z^d over ±e_i: sum over k of 2^k C(d,k) C(r,k).

    A point with k nonzero coordinates picks them, their signs, and
    positive absolute values summing to at most r, in C(r,k) ways.
    """
    return sum(
        2**k * math.comb(dimension, k) * math.comb(radius, k)
        for k in range(min(dimension, radius) + 1)
    )


def _l1_ball(dimension: int, radius_max: int, state_budget: int, targets) -> _L1Ball:
    """The ball the level search would return for Z^d over ±e_i, unsearched.

    The search stops at radius_max, or at the largest target norm once
    every target lies inside it.  Its budget trips at the least radius
    whose ball outgrows the cap, found by bisection on ints, since neither
    a document's radius nor its budget is capped.  The ball of radius cap
    holds 2 cap + 1 > cap points, so the bisection needs no radius above
    cap.
    """
    stop = radius_max
    if targets is not None:
        norms = [_l1_norm(g, dimension) for g in targets]
        if None not in norms and max(norms, default=0) <= radius_max:
            stop = max(norms, default=0)
    cap = max(state_budget, 1)
    over, high = 0, min(stop, cap) + 1  # the least radius whose ball outgrows cap
    while over < high:
        mid = (over + high) // 2
        if _l1_ball_size(dimension, mid) > cap:
            high = mid
        else:
            over = mid + 1
    if over <= stop:
        raise BudgetExceededError(
            "bfs states", state_budget, cap + 1, f"last completed radius {over - 1}"
        )
    return _L1Ball(dimension, stop)


class _L1Ball(Mapping):
    """Read-only {element: l1 norm} over the ball of radius r in Z^d.

    Lookups find the d-tuples of isinstance ints, so (True, 0) finds
    (1, 0); iteration enumerates the lattice points, and values() yields
    each radius k |S(k)| times.
    """

    __slots__ = ("_dimension", "_radius")

    def __init__(self, dimension: int, radius: int):
        self._dimension, self._radius = dimension, radius

    def __len__(self):
        return _l1_ball_size(self._dimension, self._radius)

    def __iter__(self):
        return _l1_points(self._dimension, self._radius)

    def __getitem__(self, key):
        norm = self.get(key)
        if norm is None:
            raise KeyError(key)
        return norm

    def get(self, key, default=None):
        norm = _l1_norm(key, self._dimension)
        return default if norm is None or norm > self._radius else norm

    def values(self):
        radii = range(self._radius + 1)
        balls = [_l1_ball_size(self._dimension, k) for k in radii]
        shells = map(sub, balls, [0, *balls])
        return chain.from_iterable(map(repeat, radii, shells))


def _l1_points(dimension: int, radius: int):
    """The points of Z^d with l1 norm at most radius, one by one."""
    if dimension == 0:
        yield ()
        return
    for x in range(-radius, radius + 1):
        for rest in _l1_points(dimension - 1, radius - abs(x)):
            yield (x, *rest)


def _twisted_step(shift: int, coefficient: int, x_base: int, level):
    # packed % x_base is the x digit, x + reach
    x_digits = map(x_base.__rmod__, level)
    return map(add, map(shift.__add__, level), map(coefficient.__mul__, x_digits))


def _heisenberg_packing(moves, radius: int):
    """Heisenberg, any int generating set, by right multiplication.

    With reach R the radius times the largest |entry|, every element of
    the ball has |x|, |y| <= R and |z| <= R + R^2, so (x, y, z) packs into
    the digits x + R, y + R and z + R + R^2 of base w = 2R + 1, x least
    significant: encode adds x + y*w + z*w^2 to the packed identity and
    decode reads the three digits back.  (x,y,z)(a,b,c) = (x+a, y+b,
    z+c+x*b) adds the constant a + b*w + c*w^2 - b*R*w^2 plus b*w^2 times
    the x digit, each step staying inside those bounds within the radius.
    """
    entries = [x for g in moves for x in g]
    if not all(isinstance(x, int) for x in entries):
        return None
    reach = radius * max(map(abs, entries))
    z_reach = reach + reach * reach
    w = 2 * reach + 1
    z_weight = w * w
    reaches = (reach, reach, z_reach)
    centre = reach + reach * w + z_reach * z_weight
    steps = []
    for a, b, c in moves:
        shift = a + b * w + c * z_weight - b * reach * z_weight
        if b:
            steps.append(partial(_twisted_step, shift, b * z_weight, w))
        else:
            steps.append(partial(map, shift.__add__))

    def encode(g):
        if not (isinstance(g, tuple) and len(g) == 3):
            return None
        if not all(isinstance(x, int) and -r <= x <= r for x, r in zip(g, reaches)):
            return None
        x, y, z = g
        return centre + x + y * w + z * z_weight

    def decode(packed: int) -> tuple:
        high, x = divmod(packed, w)
        z, y = divmod(high, w)
        return x - reach, y - reach, z - z_reach

    return centre, steps, encode, decode


def _bs_packing(n: int, moves, radius: int, state_budget: int):
    """BS(1,n) over {a, b}, by left multiplication.

    a^±1 (k, m) = (k, m ± 1), b (k, m) = (k+1, n*m), b^-1 (k, m) =
    (k-1, m/n).  Every element of B(R) has |k| <= R and M = m*n^R an
    integer, since m is a sum of ±n^e with e >= -R.  The state packs into
    M*width + n^(k+R) with width = n^(2R) + 1, so a^±1 adds ±n^R*width,
    b multiplies by n and b^-1 divides by n, exactly inside B(R).

    R is the radius, but at most 3b - 2, b the bit length of the cap: the
    2^b words b^j a^(e_j) b^-1 .. b^-1 a^(e_0), j = b - 1, e_i in {0, 1},
    have length at most 3j + 1 and values sum e_i n^i, all distinct, so
    the search raises before any state leaves the box.
    """
    if set(moves) != {(0, 1), (0, -1), (1, 0), (-1, 0)}:
        return None
    radius = min(radius, 3 * max(state_budget, 1).bit_length() - 2)
    scale = n**radius
    width = n ** (2 * radius) + 1
    exponent_of = {n**j: j - radius for j in range(2 * radius + 1)}
    translate = scale * width
    steps = [
        partial(map, translate.__add__),
        partial(map, (-translate).__add__),
        partial(map, n.__mul__),
        partial(map, n.__rfloordiv__),
    ]

    def encode(g):
        if not (isinstance(g, tuple) and len(g) == 2):
            return None
        k, m = g
        if not (isinstance(k, int) and -radius <= k <= radius):
            return None
        if not (isinstance(m, int) or isinstance(m, _fraction())):
            return None
        # an int is its own numerator over 1
        big, rest = divmod(m.numerator * scale, m.denominator)
        if rest:
            return None
        return big * width + n ** (k + radius)

    def decode(packed: int) -> tuple:
        big, low = divmod(packed, width)
        whole, rest = divmod(big, scale)
        return exponent_of[low], _fraction()(big, scale) if rest else whole

    # the identity (0, 0) packs to n^R
    return scale, steps, encode, decode


def bfs_word_length(
    model: GroupModel,
    gens: GeneratingSet,
    g,
    radius_max: int,
    state_budget: int = DEFAULT_BFS_STATES,
) -> int | None:
    """Exact word length of g, or None when it exceeds radius_max."""
    ball = cayley_ball(model, gens, radius_max, state_budget, targets=(g,))
    return ball.get(g)


# -- ball growth -------------------------------------------------------------------


@record
class BallGrowth:
    """Ball sizes |B(r)| for r = 0..radius with a growth-shape verdict.

    fitted_degree is the slope of log|B(r)| against log r (with intercept)
    over the top half of the radii; superpolynomial reports whether a
    straight line in r explains log|B(r)| strictly better than one in
    log r on that window, which is the finite-data signature of
    exponential growth.
    """

    sizes: tuple
    fitted_degree: float
    superpolynomial: bool
    window_start: int


def ball_growth(
    model: GroupModel,
    gens: GeneratingSet,
    radius: int,
    state_budget: int = DEFAULT_BFS_STATES,
) -> BallGrowth:
    if radius < MIN_GROWTH_RADIUS:
        raise ValueError(f"growth fitting needs radius >= {MIN_GROWTH_RADIUS}")
    from .trends import growth_degree

    distances = list(cayley_ball(model, gens, radius, state_budget).values())
    sizes = [bisect_right(distances, r) for r in range(radius + 1)]
    start = max(2, radius // 2)
    return BallGrowth(tuple(sizes), *growth_degree(sizes, start), start)


# -- distortion profiles --------------------------------------------------------------


@record
class ProfileEntry:
    """Best knowledge about one word length ℓ(g^n).

    kind "exact": value is the BFS distance.  kind "bound": value is a
    certified upper bound (certificate word or subadditive combination).
    kind "lower": nothing above the radius floor is known; value is None
    and lower carries radius_max + 1.
    """

    n: int
    value: int | None
    kind: str
    lower: int


@record
class DistortionProfile:
    entries: tuple
    trend: TrendFit | None
    trend_class: str
    radius_max: int

    def known_values(self):
        return tuple(e.value for e in self.entries if e.value is not None)


def _subadditive_closure(upper: dict, exact: dict, max_power: int) -> list:
    """Upper bounds on the powers 1..max_power closed under subadditivity.

    Entry n of the returned list is the least of upper[n] and every
    entry[k] + entry[n-k]: the cheapest split g^n = g^k g^(n-k) is itself
    a certificate.  math.inf marks a power with no bound, and entry 0 is
    unused.  A closed bound below an exact value is a ValueError.

    Call p irreducible when upper[p] is below every split of p.  Unfolding
    the cheapest splits writes every entry as a sum of upper[p] over
    irreducible parts p.  A split entry has at least two parts, all
    nonnegative word lengths, so its smallest part p has upper[p] <=
    entry[n] / 2, and the other parts sum to at least entry[n-p]; as
    upper[p] = entry[p], upper[p] + entry[n-p] is a split, hence the
    cheapest.  So the scan tries the irreducible powers in order of bound
    and stops at the first bound above half the best value so far.  A
    power whose bound ties a split is listed too, which is still exact:
    it also has upper[p] = entry[p].
    """
    known = [math.inf] * (max_power + 1)
    bounds = []  # upper[p] of the irreducible powers p, ascending
    parts = []  # those powers, in the same order
    for n in range(1, max_power + 1):
        best = upper.get(n, math.inf)
        for bound, p in zip(bounds, parts):
            if 2 * bound > best:
                break
            split = bound + known[n - p]
            if split < best:
                best = split
        if best == upper.get(n):
            at = bisect_right(bounds, best)
            bounds.insert(at, best)
            parts.insert(at, n)
        if n in exact and best < exact[n]:
            raise ValueError(
                f"upper-bound closure {best} beats the exact metric {exact[n]} "
                f"at power {n}: unsound"
            )
        known[n] = best
    return known


def distortion_profile(
    model: GroupModel,
    gens: GeneratingSet,
    g,
    max_power: int,
    radius_max: int = DEFAULT_RADIUS,
    state_budget: int = DEFAULT_BFS_STATES,
    certifier=None,
) -> DistortionProfile:
    """Word lengths of g, g^2, .., g^max_power with a trend verdict.

    BFS supplies exact values inside the radius; a certifier (n -> WordExpr
    over the generating set's names) supplies upper bounds everywhere and
    is validated against the model for its target.  Upper bounds are then
    closed under the metric's subadditivity (the cheapest split g^n =
    g^k g^(n-k) is itself a certificate), which also extrapolates past the
    ball when n = 1 is known.  The closure alone refuses a bound below an
    exact value, a certificate shorter than the ball's distance included.
    The trend is fitted on the closed upper sequence when it is complete;
    a certified answer about shape therefore never depends on where the
    ball search gave up.
    """
    if max_power < 1:
        raise ValueError("profile needs max_power >= 1")
    from .trends import fit_trend, trend_label

    ident = model.identity()
    powers = {}
    acc = ident
    for n in range(1, max_power + 1):
        acc = model.multiply(acc, g)
        powers[n] = acc
    distinct = set(powers.values())
    if len(distinct) < max_power or ident in distinct:
        raise ValueError("element has finite order within the profiled powers")

    ball = cayley_ball(model, gens, radius_max, state_budget)
    binding = gens.binding()

    exact: dict[int, int] = {}
    upper: dict[int, int] = {}
    for n, element in powers.items():
        d = ball.get(element)
        if d is not None:
            exact[n] = d
            upper[n] = d
    if certifier is not None:
        for n, element in powers.items():
            word = certifier(n)
            value = word.evaluate(model, binding)
            if value != element:
                raise ValueError(f"certificate for power {n} evaluates to {value!r}")
            upper[n] = min(upper.get(n, math.inf), word.length)

    known = _subadditive_closure(upper, exact, max_power)

    entries = []
    floor = radius_max + 1
    for n in range(1, max_power + 1):
        if n in exact:
            entries.append(ProfileEntry(n, exact[n], "exact", exact[n]))
        elif known[n] != math.inf:
            entries.append(ProfileEntry(n, known[n], "bound", floor))
        else:
            entries.append(ProfileEntry(n, None, "lower", floor))

    values = [e.value for e in entries]
    if None not in values and len(values) >= 4:
        trend = fit_trend([float(v) for v in values])
    else:
        trend = None
    return DistortionProfile(tuple(entries), trend, trend_label(trend), radius_max)


# -- certificates ----------------------------------------------------------------------


def bs_horner_certificate(m: int, n: int) -> WordExpr:
    """Word of length O(log m) evaluating to a^m in BS(1,n).

    Writes m = sum alpha_i n^i and emits b^k a^(alpha_k) b^-1 a^(alpha_(k-1))
    b^-1 ... b^-1 a^(alpha_0): each b^-1 multiplies the accumulated
    translation by n, so the digits are consumed from the top.  The length
    is at most k + n(k+1) + k for k = floor(log_n m).
    """
    if m < 1:
        raise ValueError("certificate needs m >= 1")
    if n < 2:
        raise ValueError("base must be >= 2")
    digits = []
    rest = m
    while rest:
        rest, digit = divmod(rest, n)
        digits.append(digit)
    k = len(digits) - 1
    tokens = []
    if k > 0:
        tokens.append(("b", k))
    for i in range(k, -1, -1):
        if digits[i]:
            tokens.append(("a", digits[i]))
        if i > 0:
            tokens.append(("b", -1))
    return WordExpr(tuple(tokens))


def bs_horner_length_bound(m: int, n: int) -> int:
    """The certificate length bound k + n(k+1) + k, k = floor(log_n m)."""
    k = 0
    rest = m
    while rest >= n:
        rest //= n
        k += 1
    return k + n * (k + 1) + k


def heisenberg_square_certificate(n: int) -> WordExpr:
    """The commutator word u^n t^n u^-n t^-n, of length 4n.

    Evaluates to s^(n^2): each of the n copies of u contributes n central
    steps when commuted past t^n.
    """
    if n < 0:
        raise ValueError("power must be nonnegative")
    if n == 0:
        return WordExpr(())
    return WordExpr((("u", n), ("t", n), ("u", -n), ("t", -n)))


def base_q_certificate(n: int) -> WordExpr:
    """Word of length O(sqrt(n)) evaluating to s^n in the Heisenberg group.

    With q the least integer exceeding sqrt(n) and n = a1*q + a0, the word
    is the product of commutators [u^a0, t] [u^q, t^a1], using that
    [u^x, t^y] = s^(x*y) exactly in a 2-step group.  Its length a0 and a1
    are both below q, so the total stays within 16(sqrt(n) + 1).
    """
    if n < 1:
        raise ValueError("certificate needs n >= 1")
    q = math.isqrt(n) + 1
    a1, a0 = divmod(n, q)
    tokens = []
    for x, y in ((a0, 1), (q, a1)):
        if x and y:
            tokens.extend((("u", x), ("t", y), ("u", -x), ("t", -y)))
    return WordExpr(tuple(tokens))


def named_certificate(kind: str, n=None, m=None, base=None):
    """(word, model, target, length bound or None) of a `certificate` run:
    a^m in BS(1,base), s^(n^2), or s^n with no closed bound."""
    if kind == "bs_horner":
        return (
            bs_horner_certificate(m, base), BS1nModel(base), (0, m),
            bs_horner_length_bound(m, base),
        )
    if kind == "heisenberg_square":
        return heisenberg_square_certificate(n), HeisenbergModel(), (0, 0, n * n), 4 * n
    return base_q_certificate(n), HeisenbergModel(), (0, 0, n), None


def auto_certifier(model: GroupModel, word: WordExpr) -> Callable[[int], WordExpr] | None:
    """Certificate factory for powers of a distinguished distorted element.

    Only positive powers of the central Heisenberg generator and of the
    distorted Baumslag-Solitar generator have built-in certificates; the
    profiler still validates every produced word against the model, so a
    nonstandard generating set fails loudly rather than silently.
    """
    if len(word.tokens) != 1:
        return None
    name, exponent = word.tokens[0]
    if exponent < 1:
        return None
    if isinstance(model, HeisenbergModel) and name == "s":
        return lambda m: base_q_certificate(exponent * m)
    if isinstance(model, BS1nModel) and name == "a":
        return lambda m: bs_horner_certificate(exponent * m, model.n)
    return None


def commutator_power_check(model: HeisenbergModel, m1: int, m2: int) -> bool:
    """Does [u^m1, t^m2] equal s^(m1*m2) in the model?  (It must.)"""
    gens = model.generators()
    u_m = model.power(gens["u"], m1)
    t_m = model.power(gens["t"], m2)
    commutator = model.multiply(
        model.multiply(u_m, t_m),
        model.multiply(model.inverse(u_m), model.inverse(t_m)),
    )
    return commutator == model.power(gens["s"], m1 * m2)


# -- growth formulas ---------------------------------------------------------------------


def bass_guivarch_degree(ranks) -> int:
    """Polynomial growth degree sum of k * rank_k over the central series."""
    ranks = tuple(ranks)
    if not ranks:
        raise ValueError("need at least one rank")
    if any(r < 0 for r in ranks):
        raise ValueError("ranks must be nonnegative")
    return sum((k + 1) * r for k, r in enumerate(ranks))


def min_growth_degree(step: int) -> int:
    """Least growth degree of a torsion-free group of the given step."""
    if step < 2:
        raise ValueError("the bound applies to step >= 2")
    return step * (step + 1) // 2 + 1


def embedding_step_bound(complexity_exponent) -> int:
    """Least step d >= 1 whose threshold (d+1)(d+2)/2 + 2 reaches the
    exponent, a finite number.

    With m = d+1 the threshold reaches x exactly when the integer m(m+1)
    reaches c = ceil(2x - 4), computed exactly; the least such m is
    isqrt(c) or one more.
    """
    if complexity_exponent <= 0:
        raise ValueError("exponent must be positive")
    c = math.ceil(2 * _fraction()(complexity_exponent) - 4)
    m = math.isqrt(max(c, 0))
    if m * (m + 1) < c:
        m += 1
    return max(m - 1, 1)
