"""Independent brute-force reference computations for the test suite.

Everything here is deliberately naive: filter all strings, iterate rules
to a long prefix, enumerate rotations.  The implementations under test are
compared against these on small inputs, and frozen constants in the tests
were produced by these functions once and pinned.
"""

from itertools import product


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
    subgraph reached this deep is already bi-essential.
    """
    clean = lambda w: not any(f in w for f in forbidden)

    def grow_right(w, steps):
        if steps == 0:
            return True
        return any(clean(w + a) and grow_right((w + a)[-pad:], steps - 1) for a in alphabet)

    def grow_left(w, steps):
        if steps == 0:
            return True
        return any(clean(a + w) and grow_left((a + w)[:pad], steps - 1) for a in alphabet)

    out = set()
    for p in product(alphabet, repeat=n):
        w = "".join(p)
        if clean(w) and grow_right(w[-pad:], pad) and grow_left(w[:pad], pad):
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
