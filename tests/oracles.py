"""Independent brute-force reference computations for the test suite.

Everything here is deliberately naive: filter all strings, iterate rules
to a long prefix, enumerate rotations.  The implementations under test are
compared against these on small inputs, and frozen constants in the tests
were produced by these functions once and pinned.
"""

from fractions import Fraction
from functools import cache
from itertools import product

from shiftlab.blockcode import apply_to_word, minimized
from shiftlab.errors import BudgetExceededError


def golden_mean_words(n: int) -> set[str]:
    """All binary words of length n avoiding '11'.

    Padding any such word with zeros on both sides gives a legal
    bi-infinite point, so plain avoidance equals legality here.
    """
    return {
        "".join(p)
        for p in product("01", repeat=n)
        if "11" not in "".join(p)
    }


def sft_words_brute(alphabet: str, forbidden: list[str], n: int, pad: int = 12) -> set[str]:
    """Legal length-n words of an SFT by checking two-sided extendability.

    A word counts only if it extends `pad` letters on both sides without
    hitting a forbidden factor.  For the small presentations used in tests
    a 12-letter margin is far beyond every forbidden length, and the
    subgraph reached this deep is already bi-essential.  A word w shorter
    than span (the longest forbidden length less one) is first extended on
    the right to that length in every way; no forbidden factor can touch
    letters added on both sides of such a w + y, so its sides extend
    independently.
    """
    clean = lambda w: not any(f in w for f in forbidden)
    span = max(map(len, forbidden), default=1) - 1

    @cache
    def grow_right(w, steps):
        if steps == 0:
            return True
        return any(clean(w + a) and grow_right((w + a)[-pad:], steps - 1) for a in alphabet)

    @cache
    def grow_left(w, steps):
        if steps == 0:
            return True
        return any(clean(a + w) and grow_left((a + w)[:pad], steps - 1) for a in alphabet)

    out = set()
    for p in product(alphabet, repeat=n):
        w = "".join(p)
        if any(
            clean(w + y) and grow_right((w + y)[-pad:], pad) and grow_left((w + y)[:pad], pad)
            for y in map("".join, product(alphabet, repeat=max(span - n, 0)))
        ):
            out.add(w)
    return out


def substitution_words(rules: dict, n: int, iterations: int = 16) -> set[str]:
    """Factors of a deep iterate of a primitive rule, stabilized.

    Iterates from every starting letter, and insists the factor sets of
    depth `iterations` and `iterations + 1` agree so the answer is a fixed
    point rather than an artifact of stopping early.
    """

    def factors_at(depth):
        found = set()
        for start in rules:
            w = start
            for _ in range(depth):
                w = "".join(rules[c] for c in w)
                if len(w) > 4 * n + 64:
                    # keep a window: factors of a prefix of the fixed point
                    w = w[: 4 * n + 64]
            found |= {w[i : i + n] for i in range(len(w) - n + 1)}
        return found

    a, b = factors_at(iterations), factors_at(iterations + 1)
    assert a == b, "oracle did not stabilize; deepen the iteration"
    return a


def periodic_words(seed: str, n: int) -> set[str]:
    s = seed * (n // len(seed) + 2)
    return {s[i : i + n] for i in range(len(seed))}


def fibonacci_rules() -> dict:
    return {"0": "01", "1": "0"}


def word_key_tuple(symbols: str, word: str) -> tuple[int, ...]:
    """Alphabet-order sort key as the tuple of symbol indices."""
    index = {s: i for i, s in enumerate(symbols)}
    return tuple(index[c] for c in word)


def power_by_squaring(model, a, e: int):
    """a^e in a group model by square-and-multiply on model.multiply."""
    if e < 0:
        a, e = model.inverse(a), -e
    acc = model.identity()
    while e:
        if e & 1:
            acc = model.multiply(acc, a)
        a = model.multiply(a, a)
        e >>= 1
    return acc


def bs_multiply(n: int, a, b):
    """(k1,m1)(k2,m2) in BS(1,n) on Fractions, integral translations as int."""
    (k1, m1), (k2, m2) = a, b
    m = Fraction(n) ** k1 * m2 + m1
    return (k1 + k2, int(m) if m.denominator == 1 else m)


def subadditive_closure_loop(upper: dict, exact: dict, max_power: int) -> dict:
    """{n: bound} closed under bound(n) <= bound(k) + bound(n - k), by a double loop.

    Raises ValueError when a closed bound is below the exact value.
    """
    hull = {}
    for n in range(1, max_power + 1):
        best = upper.get(n)
        for k in range(1, n // 2 + 1):
            if k in hull and (n - k) in hull:
                combined = hull[k] + hull[n - k]
                if best is None or combined < best:
                    best = combined
        if best is not None:
            if n in exact and best < exact[n]:
                raise ValueError(
                    f"upper-bound closure {best} beats the exact metric {exact[n]} "
                    f"at power {n}: unsound"
                )
            hull[n] = best
    return hull


def build_patches_by_slide(domain, code, n: int, k: int, word_budget: int = 2_000_000):
    """n x k spacetime patches, applying the code to each row from scratch.

    Returns (rows, source_word) pairs in first-seen order of the sorted word
    enumeration, raising what slide-by-slide application raises.
    """
    if n < 1 or k < 1:
        raise ValueError("patch dimensions must be positive")
    if code.domain != domain:
        raise ValueError("code is not defined on the given presentation")
    phi = minimized(code)
    length = n + 2 * (k - 1) * phi.rule.radius
    words = domain.count_words(length)
    if words > word_budget:
        raise BudgetExceededError("generating words", word_budget, words, "build_patches")
    seen = {}
    for w in domain.words_of_length(length):
        rows = []
        current = w
        for _ in range(k):
            margin = (len(current) - n) // 2
            rows.append(current[margin : margin + n])
            if len(rows) < k:
                current = apply_to_word(phi, current)
        seen.setdefault(tuple(rows), w)
    return list(seen.items())


def rectangle_sweep(domain, code, cols: int, rows: int, word_budget: int = 2_000_000) -> dict:
    """{(n, k): count}, building every n x k family on its own, k outer."""
    return {
        (n, k): len(build_patches_by_slide(domain, code, n, k, word_budget))
        for k in range(1, rows + 1)
        for n in range(1, cols + 1)
    }
