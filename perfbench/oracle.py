"""Reference arithmetic for the correctness gate, written without shiftlab.

Everything here recomputes a quantity the program also reports, by a
route chosen to be independent of the program's own code: word counts of
shifts of finite type by path counting on a trimmed de Bruijn graph,
closed forms for full shifts and the Fibonacci shift, exact affine and
Heisenberg arithmetic with `Fraction`, and the Zᵈ ball-size formula.
"""

from __future__ import annotations

import re
from fractions import Fraction
from itertools import product
from math import comb, isqrt


class Sft:
    """Language of the shift avoiding `forbidden`, as paths in a graph.

    Vertices are the legal (m-1)-blocks (m the longest forbidden length)
    that lie on a bi-infinite path; a legal word of length n >= m-1 is the
    label of a path, and shorter legal words are factors of vertices.
    """

    def __init__(self, alphabet: str, forbidden):
        self.alphabet = alphabet
        self.forbidden = tuple(forbidden)
        m = max((len(f) for f in self.forbidden), default=1)
        self.block = max(m - 1, 1)
        b = self.block

        def clean(w):
            return not any(f in w for f in self.forbidden)

        vertices = {"".join(p) for p in product(alphabet, repeat=b) if clean("".join(p))}
        while True:
            edges = {
                (v, (v + a)[1:])
                for v in vertices
                for a in alphabet
                if (v + a)[1:] in vertices and clean(v + a)
            }
            kept = {v for v, _ in edges} & {w for _, w in edges}
            if kept == vertices:
                break
            vertices = kept
        self.vertices = tuple(sorted(vertices))
        self.succ = {v: tuple(sorted(w for u, w in edges if u == v)) for v in self.vertices}
        self.pred = {v: tuple(sorted(u for u, w in edges if w == v)) for v in self.vertices}

    @property
    def empty(self) -> bool:
        return not self.vertices

    @property
    def infinite(self) -> bool:
        """A trimmed graph that is not a union of disjoint cycles carries
        infinitely many points: a branching vertex starts two rays that
        share a left half, which no pair of periodic points can do."""
        return any(len(s) >= 2 for s in self.succ.values())

    def _short_words(self, n: int) -> set:
        return {v[i : i + n] for v in self.vertices for i in range(self.block - n + 1)}

    def ending_counts(self, n: int) -> dict:
        """Number of legal n-words ending in each vertex, for n >= block."""
        counts = dict.fromkeys(self.vertices, 1)
        for _ in range(n - self.block):
            counts = self._step(counts)
        return counts

    def counts(self, nmax: int) -> list:
        """P(1..nmax)."""
        out = [len(self._short_words(n)) for n in range(1, min(nmax + 1, self.block))]
        counts = dict.fromkeys(self.vertices, 1)
        for n in range(self.block, nmax + 1):
            if n > self.block:
                counts = self._step(counts)
            out.append(sum(counts.values()))
        return out

    def _step(self, counts: dict) -> dict:
        nxt = dict.fromkeys(self.vertices, 0)
        for v, c in counts.items():
            for w in self.succ[v]:
                nxt[w] += c
        return nxt

    def count(self, n: int) -> int:
        return self.counts(n)[-1]

    def is_legal(self, word: str) -> bool:
        n = len(word)
        if n < self.block:
            return word in self._short_words(n)
        b = self.block
        if word[:b] not in self.succ:
            return False
        return all(word[i + 1 : i + 1 + b] in self.succ[word[i : i + b]] for i in range(n - b))

    def special_count(self, n: int, side: str) -> int:
        """Number of legal n-words with two or more one-letter extensions."""
        if n + 1 <= self.block:
            longer = self._short_words(n + 1)
            exts = {}
            for w in longer:
                core, ext = (w[:-1], w[-1]) if side == "right" else (w[1:], w[0])
                exts.setdefault(core, set()).add(ext)
            return sum(1 for e in exts.values() if len(e) >= 2)
        if side == "right":
            counts = self.ending_counts(n)
            return sum(c for v, c in counts.items() if len(self.succ[v]) >= 2)
        # left: count by the starting vertex, which is the ending vertex of
        # the reversed word in the reversed graph
        counts = dict.fromkeys(self.vertices, 1)
        for _ in range(n - self.block):
            nxt = dict.fromkeys(self.vertices, 0)
            for v, c in counts.items():
                for u in self.pred[v]:
                    nxt[u] += c
            counts = nxt
        return sum(c for v, c in counts.items() if len(self.pred[v]) >= 2)


def zd_ball_size(d: int, r: int) -> int:
    """|B(r)| in Zᵈ with the standard generators."""
    return sum(2**k * comb(d, k) * comb(r, k) for k in range(d + 1))


# -- groups ------------------------------------------------------------------


class Affine:
    """BS(1,n) as maps t -> nᵏ t + m, with m kept as a Fraction."""

    def __init__(self, n: int):
        self.n = n
        self.gens = {"a": (0, Fraction(1)), "b": (1, Fraction(0))}

    def identity(self):
        return (0, Fraction(0))

    def mul(self, x, y):
        return (x[0] + y[0], Fraction(self.n) ** x[0] * y[1] + x[1])

    def inv(self, x):
        return (-x[0], -x[1] / Fraction(self.n) ** x[0])


class Heisenberg:
    """Integer Heisenberg group: (x,y,z)(x',y',z') = (x+x', y+y', z+z'+xy')."""

    def __init__(self):
        self.gens = {"u": (1, 0, 0), "t": (0, 1, 0), "s": (0, 0, 1)}

    def identity(self):
        return (0, 0, 0)

    def mul(self, p, q):
        return (p[0] + q[0], p[1] + q[1], p[2] + q[2] + p[0] * q[1])

    def inv(self, p):
        return (-p[0], -p[1], -p[2] + p[0] * p[1])


class FreeAbelian:
    def __init__(self, d: int):
        self.gens = {f"e{i + 1}": tuple(int(i == j) for j in range(d)) for i in range(d)}
        self.d = d

    def identity(self):
        return (0,) * self.d

    def mul(self, p, q):
        return tuple(x + y for x, y in zip(p, q))

    def inv(self, p):
        return tuple(-x for x in p)


_TOKEN = re.compile(r"^([A-Za-z_][A-Za-z0-9_]*)(?:\^(-?\d+))?$")


def parse_word(text: str) -> list:
    tokens = []
    for chunk in text.split():
        m = _TOKEN.match(chunk)
        if not m:
            raise ValueError(f"bad token {chunk!r}")
        tokens.append((m.group(1), int(m.group(2) or 1)))
    return tokens


def word_length(tokens) -> int:
    return sum(abs(e) for _, e in tokens)


def evaluate(group, tokens, gens=None):
    """Left-to-right product of the tokens, each power by repeated squaring."""
    gens = gens or group.gens
    acc = group.identity()
    for name, e in tokens:
        g = gens[name] if e >= 0 else group.inv(gens[name])
        e = abs(e)
        piece = group.identity()
        while e:
            if e & 1:
                piece = group.mul(piece, g)
            g = group.mul(g, g)
            e >>= 1
        acc = group.mul(acc, piece)
    return acc


def horner_word(m: int, n: int) -> list:
    """b^k a^(d_k) b^-1 a^(d_(k-1)) ... a^(d_0) for m = sum d_i nⁱ."""
    digits = []
    while m:
        m, d = divmod(m, n)
        digits.append(d)
    k = len(digits) - 1
    tokens = [("b", k)] if k else []
    for i in range(k, -1, -1):
        if digits[i]:
            tokens.append(("a", digits[i]))
        if i:
            tokens.append(("b", -1))
    return tokens


def horner_bound(m: int, n: int) -> int:
    k = 0
    while m >= n:
        m //= n
        k += 1
    return k + n * (k + 1) + k


def commutator_word(n: int) -> list:
    """[u^a0, t][u^q, t^a1] = s^n with q = isqrt(n) + 1, n = a1 q + a0."""
    q = isqrt(n) + 1
    a1, a0 = divmod(n, q)
    tokens = []
    for x, y in ((a0, 1), (q, a1)):
        if x and y:
            tokens += [("u", x), ("t", y), ("u", -x), ("t", -y)]
    return tokens


def ball_distances(group, gens: dict, radius: int) -> dict:
    """Exact word lengths of every element within `radius`, by BFS."""
    moves = []
    for g in gens.values():
        for h in (g, group.inv(g)):
            if h not in moves:
                moves.append(h)
    dist = {group.identity(): 0}
    frontier = [group.identity()]
    for r in range(1, radius + 1):
        nxt = []
        for g in frontier:
            for m in moves:
                h = group.mul(g, m)
                if h not in dist:
                    dist[h] = r
                    nxt.append(h)
        frontier = nxt
    return dist
